#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Samples::add(const Metrics& m) {
  for (const auto& [name, metric] : m) {
    Series& s = series_[name];
    s.values.push_back(metric.value);
    s.unit = metric.unit;
  }
  ++rounds_;
}

Metrics Samples::medians() const {
  Metrics out;
  for (const auto& [name, s] : series_) out[name] = {median(s.values), s.unit};
  return out;
}

void add_latency(Metrics& out, const std::string& name,
                 const std::vector<double>& host, const std::string& unit,
                 const std::vector<double>* modelled) {
  out[name + ".p50"] = {percentile(host, 50), unit};
  out[name + ".p99"] = {percentile(host, 99), unit};
  if (modelled != nullptr) out[name + ".model"] = {median(*modelled), unit};
  out[name + ".n"] = {static_cast<double>(host.size()), "count"};
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    // Every digit the double holds: the values are measurements, and a
    // rounded time would read the same on every run.
    char num[40];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
