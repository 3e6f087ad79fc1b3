/// \file rng.hpp
/// Deterministic random streams for fault injection.  Every injection site
/// owns an independent xoshiro256** stream whose state is expanded (via
/// SplitMix64) from a seed derived from the (campaign seed, site name)
/// pair.  Because a site's draws depend only on that pair and on how many
/// faults the site itself decided, the fault sequence at any one site is
/// reproducible in isolation: the same seed replays the same faults no
/// matter which other sites exist, in which order they were wired, or how
/// many worker threads the campaign fans across.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace iecd::fault {

/// SplitMix64 (Steele/Lea/Flood): the canonical seed expander — one 64-bit
/// state, full-period, and statistically strong enough to initialize the
/// main generator from correlated seeds (seed, seed^1, ...).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the site stream generator.  Fast (no divisions), 256-bit
/// state, passes BigCrush — and, unlike std::mt19937, its output for a
/// given seed is pinned down here, not by the standard library vendor, so
/// campaign replays are portable across toolchains.
class Xoshiro256ss {
 public:
  explicit Xoshiro256ss(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the top 53 bits scaled — every value is
  /// exactly representable, so comparisons against rates are bit-stable.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// 64-bit FNV-1a, the repository's one copy: hashes site names here and
/// a checkpoint's campaign options (campaign_config_hash).  Stable across
/// platforms and runs (unlike std::hash), so a site's stream is a pure
/// function of its name.  \p hash is the starting value (FNV's offset
/// basis unless a caller must reproduce a different historical one).
constexpr std::uint64_t fnv1a(std::string_view text,
                              std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Seed of the stream for \p site under \p campaign_seed.  The golden-ratio
/// multiply decorrelates name hashes before they meet the campaign seed;
/// SplitMix64 then whitens the combination into the xoshiro state.
inline std::uint64_t site_seed(std::uint64_t campaign_seed,
                               std::string_view site) {
  return SplitMix64(campaign_seed ^ (fnv1a(site) * 0x9E3779B97F4A7C15ULL))
      .next();
}

}  // namespace iecd::fault
