// Latency probes of single layers.  Each runs on at most four simulated
// nodes (the host has four cores), so its host times measure the protocol
// rather than the host scheduler.  Host times come from steady_clock around
// one public call; modelled times from the calling node's virtual clock.
#pragma once

#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace perfbench {

struct ProbeResult {
  Metrics metrics;
  std::vector<std::string> failures;  // probes whose data read back wrong
};

ProbeResult run_probes(const RunConfig& cfg, Tracer& tracer);

}  // namespace perfbench
