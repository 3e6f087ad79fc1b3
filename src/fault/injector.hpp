/// \file injector.hpp
/// FaultInjector: one per run.  Owns the fault plan and the per-site
/// random streams; the wiring helpers (sites.hpp) ask it for sites and
/// install hooks that consult them.  Sites are keyed by name, each with an
/// independent xoshiro256** stream seeded from (run seed, site name) — so
/// a single site's fault sequence is reproducible in isolation and the
/// whole run is independent of site creation order, event interleaving and
/// campaign thread count.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "fault/plan.hpp"
#include "fault/rng.hpp"

namespace iecd::trace {
class MetricsRegistry;
}

namespace iecd::fault {

class FaultInjector {
 public:
  /// One injection site: its stream plus opportunity/injection counters.
  /// References returned by FaultInjector::site() stay valid for the
  /// injector's lifetime (map-backed), so hooks may capture them.
  class Site {
   public:
    Site(std::string name, std::uint64_t seed)
        : name_(std::move(name)), rng_(seed) {}

    const std::string& name() const { return name_; }

    /// One Bernoulli opportunity at probability \p rate.  rate <= 0 draws
    /// NOTHING (and counts nothing): a zero-rate site is stream-silent, so
    /// enabling one fault class never shifts another's sequence.  A fired
    /// opportunity counts as injected.
    bool fire(double rate) {
      if (rate <= 0.0) return false;
      ++opportunities_;
      if (rng_.uniform01() >= rate) return false;
      ++injected_;
      return true;
    }

    /// Extra draws for fault parameters (magnitude, position, sign) —
    /// consumed only after fire() returned true, so parameter draws never
    /// disturb the opportunity sequence of a quiet site.
    std::uint64_t next_u64() { return rng_.next(); }
    double uniform(double lo, double hi) { return rng_.uniform(lo, hi); }
    /// Single-bit XOR mask (bit position from the stream) — the canonical
    /// wire corruption, guaranteed to actually change the byte.
    std::uint8_t bit_mask() {
      return static_cast<std::uint8_t>(1u << (next_u64() & 7u));
    }
    /// Counts an injection decided outside fire() (e.g. a pre-generated
    /// disturbance pulse).
    void note_injected(std::uint64_t n = 1) { injected_ += n; }

    std::uint64_t opportunities() const { return opportunities_; }
    std::uint64_t injected() const { return injected_; }

   private:
    std::string name_;
    Xoshiro256ss rng_;
    std::uint64_t opportunities_ = 0;
    std::uint64_t injected_ = 0;
  };

  /// Throws std::invalid_argument when validate(plan) reports an error.
  FaultInjector(std::uint64_t seed, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  std::uint64_t seed() const { return seed_; }
  const FaultPlan& plan() const { return plan_; }

  /// Get-or-create; the reference stays valid for the injector's lifetime.
  Site& site(const std::string& name) {
    auto it = sites_.find(name);
    if (it == sites_.end()) {
      it = sites_.emplace(name, Site{name, site_seed(seed_, name)}).first;
    }
    return it->second;
  }

  const Site* find_site(const std::string& name) const {
    auto it = sites_.find(name);
    return it == sites_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, Site>& sites() const { return sites_; }

  std::uint64_t total_injected() const {
    std::uint64_t n = 0;
    for (const auto& [name, site] : sites_) n += site.injected();
    return n;
  }
  std::uint64_t total_opportunities() const {
    std::uint64_t n = 0;
    for (const auto& [name, site] : sites_) n += site.opportunities();
    return n;
  }

  /// Counters "fault.<site>.injected" / "fault.<site>.opportunities" into
  /// \p metrics.  No sites (empty plan) exports nothing — the registry
  /// stays identical to a run with no injector attached.
  void export_metrics(trace::MetricsRegistry& metrics) const;

 private:
  std::uint64_t seed_;
  FaultPlan plan_;
  std::map<std::string, Site> sites_;
};

}  // namespace iecd::fault
