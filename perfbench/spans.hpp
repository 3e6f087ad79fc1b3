// Span recorder for the traced run.  Spans are recorded from the
// benchmark's own code around its calls into each library layer, kept in
// memory, and written out once when the benchmark ends.  A span is either
// one call (calls == 1) or an aggregate of many short calls of one kind
// inside its parent (the co-simulation component wrappers), whose
// duration is the summed call time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::uint64_t run = 0;     ///< unit of work the span belongs to
  std::int64_t start_ns = 0; ///< since the recorder's origin
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 1;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  std::int64_t since_origin(Clock::time_point t) const {
    return ns_between(origin_, t);
  }

  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Spans recorded so far (call after every recording thread finished).
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of it that its
  /// children cover.  Children that overlap in time (parallel campaign
  /// workers) count once, through the union of their intervals; an aggregate
  /// child's calls ran one after another, so it covers its summed time.
  std::map<std::uint64_t, std::int64_t> self_ns() const {
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::map<std::uint64_t, std::int64_t> self;
    for (const Span& s : spans_) {
      std::int64_t covered = 0;
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (const Span* c : children[s.id]) {
        if (c->calls > 1) {
          covered += c->dur_ns;
        } else {
          intervals.emplace_back(c->start_ns, c->start_ns + c->dur_ns);
        }
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = std::numeric_limits<std::int64_t>::min();
      for (const auto& [begin, end] : intervals) {
        const std::int64_t from = std::max(begin, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
      self[s.id] = std::max<std::int64_t>(0, s.dur_ns - covered);
    }
    return self;
  }

  /// Durations [ms] of every span called \p name.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) * 1e-6);
    }
    return out;
  }

  /// Summed duration [ns] of every span called \p name.
  std::int64_t total_ns(const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& s : spans_) {
      if (name == s.name) total += s.dur_ns;
    }
    return total;
  }

  /// Summed self time [ns] of every span called \p name.
  std::int64_t total_self_ns(const std::string& name) const {
    const auto self = self_ns();
    std::int64_t total = 0;
    for (const Span& s : spans_) {
      if (name == s.name) total += self.at(s.id);
    }
    return total;
  }

  /// One JSON object per line, in recording order.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto self = self_ns();
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"run\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"dur_ns\":%lld,"
                   "\"self_ns\":%lld,\"calls\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.run),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.start_ns + s.dur_ns),
                   static_cast<long long>(s.dur_ns),
                   static_cast<long long>(self.at(s.id)),
                   static_cast<unsigned long long>(s.calls));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one call as a span when a recorder is attached; a null
/// recorder makes the scope a no-op, which is the untraced path.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, std::uint64_t parent,
            std::uint64_t run)
      : rec_(rec) {
    if (rec_ == nullptr) return;
    span_.id = rec_->next_id();
    span_.parent = parent;
    span_.name = name;
    span_.run = run;
    start_ = Clock::now();
  }
  ~SpanScope() {
    if (rec_ == nullptr) return;
    const auto end = Clock::now();
    span_.start_ns = rec_->since_origin(start_);
    span_.dur_ns = ns_between(start_, end);
    rec_->record(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Parent id for child spans (0 when untraced).
  std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_;
  Span span_;
  Clock::time_point start_;
};

}  // namespace perfbench
