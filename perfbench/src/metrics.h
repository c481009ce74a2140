// Named metrics with units, per-name sample collection, and the JSON the
// benchmark prints as its last line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

// Nearest-rank percentile, q in [0, 100]; 0 when empty.
double percentile(std::vector<double> v, double q);

// Samples per metric name across rounds of one run; reduced to medians.
class Samples {
 public:
  void add(const Metrics& m);
  Metrics medians() const;
  std::size_t rounds() const { return rounds_; }

 private:
  struct Series {
    std::vector<double> values;
    std::string unit;
  };
  std::map<std::string, Series> series_;
  std::size_t rounds_ = 0;
};

// A latency probe's summary: host p50/p99, the modelled p50 when the probe
// runs on a virtual clock, and the sample count.
void add_latency(Metrics& out, const std::string& name,
                 const std::vector<double>& host, const std::string& unit,
                 const std::vector<double>* modelled = nullptr);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

}  // namespace perfbench
