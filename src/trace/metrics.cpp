#include "trace/metrics.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace iecd::trace {

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

double& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

util::RunningStats& MetricsRegistry::stats(const std::string& name) {
  return stats_[name];
}

util::LatencyHistogram& MetricsRegistry::series(const std::string& name) {
  return series_[name];
}

const MetricsRegistry::Counter* MetricsRegistry::find_counter(
    const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const double* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const util::RunningStats* MetricsRegistry::find_stats(
    const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

const util::LatencyHistogram* MetricsRegistry::find_series(
    const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && stats_.empty() &&
         series_.empty();
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  stats_.clear();
  series_.clear();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].value += c.value;
  }
  for (const auto& [name, g] : other.gauges_) gauges_[name] = g;
  for (const auto& [name, s] : other.stats_) stats_[name].merge(s);
  for (const auto& [name, s] : other.series_) series_[name].merge(s);
}

std::string MetricsRegistry::report() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += util::format("%-36s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(c.value));
  }
  for (const auto& [name, g] : gauges_) {
    out += util::format("%-36s %.6g\n", name.c_str(), g);
  }
  for (const auto& [name, s] : stats_) {
    out += util::format("%-36s n=%-7zu mean %.4g  sd %.4g  min %.4g  max %.4g\n",
                        name.c_str(), s.count(), s.mean(), s.stddev(), s.min(),
                        s.max());
  }
  for (const auto& [name, s] : series_) {
    out += util::format(
        "%-36s n=%-7llu mean %.4g  p50 %.4g  p99 %.4g  max %.4g\n",
        name.c_str(), static_cast<unsigned long long>(s.count()), s.mean(),
        s.percentile(50), s.percentile(99), s.max());
  }
  return out;
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "metric,kind,count,value,mean,stddev,min,max,p50,p99\n";
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof line, "%s,counter,%llu,%llu,,,,,,\n",
                  name.c_str(), static_cast<unsigned long long>(c.value),
                  static_cast<unsigned long long>(c.value));
    os << line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof line, "%s,gauge,1,%.9g,,,,,,\n", name.c_str(),
                  g);
    os << line;
  }
  for (const auto& [name, s] : stats_) {
    std::snprintf(line, sizeof line, "%s,stats,%zu,,%.9g,%.9g,%.9g,%.9g,,\n",
                  name.c_str(), s.count(), s.mean(), s.stddev(), s.min(),
                  s.max());
    os << line;
  }
  for (const auto& [name, s] : series_) {
    std::snprintf(line, sizeof line,
                  "%s,series,%llu,,%.9g,,%.9g,%.9g,%.9g,%.9g\n",
                  name.c_str(), static_cast<unsigned long long>(s.count()),
                  s.mean(), s.min(), s.max(), s.percentile(50),
                  s.percentile(99));
    os << line;
  }
}

std::string MetricsRegistry::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

}  // namespace iecd::trace
