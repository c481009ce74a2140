// The benchmark's workloads: which application instances one round runs,
// how their inputs follow from the seed, and what a round measures.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/harness.h"
#include "metrics.h"
#include "mpi/mpi.h"
#include "tmk/config.h"

namespace perfbench {

// The configuration every application run uses.  Application compute is
// billed at zero (cpu_scale = 0): the modelled time keeps every protocol
// cost of the 100 Mbps NOW and drops the metering of noisy host time.
struct RunConfig {
  now::tmk::DsmConfig dsm;
  now::mpi::MpiConfig mpi;
};
RunConfig pinned_config();

// The knobs that select the protocol under test, on one line.
std::string describe_knobs(const RunConfig& cfg);

// A span recorded around one call into a layer (host steady-clock seconds
// since the benchmark started).
struct Span {
  std::string name;
  double start_s = 0, end_s = 0;
};

// Records spans when on; when off, begin() returns -1 and end() ignores it.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int begin(const std::string& name);
  void end(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

struct RoundResult {
  Metrics end_to_end;  // model_ms, messages, wire_mb, wall_s
  std::vector<double> instance_wall_s;  // each instance's OpenMP + Tmk wall
  Metrics layers;      // per-layer counters and host times
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed run
  std::vector<std::string> details;   // one line per instance
};

class Workload {
 public:
  // nullopt for an unknown name.  `quick` shrinks every input for the
  // self-check; the measured workloads never use it.
  static std::optional<Workload> make(const std::string& name,
                                      std::uint64_t seed, bool quick);

  const std::string& name() const { return name_; }
  std::string describe() const;

  // Generates every instance's input and constructs and tears down each
  // runtime (DSM, OpenMP, MPI) once at `cfg`: the set-up an application run
  // pays before its first instruction.
  void setup(const RunConfig& cfg) const;

  // Runs every instance's sequential version once: the checksum each
  // parallel run must reproduce.  Inputs are the same in every round.
  void run_references(const RunConfig& cfg, Tracer& tracer);
  double reference_host_s() const;  // host time of those runs, summed
  std::size_t instances() const { return instances_.size(); }

  // Runs every instance in its OpenMP, Tmk and MPI versions and checks each
  // checksum against the sequential reference.
  RoundResult run_round(const RunConfig& cfg, Tracer& tracer) const;

 private:
  // The three parallel versions of one instance, run back to back.
  struct Versions {
    now::apps::AppResult omp, tmk, mpi;
    double omp_s = 0, tmk_s = 0, mpi_s = 0;  // host wall time
  };
  struct Instance {
    std::string app;     // "sweep3d", "fft3d", "water", "tsp", "qsort"
    std::string params;  // sizes and seed, for the log
    bool exact = false;  // checksums must match bit for bit (TSP)
    std::function<void()> make_inputs;
    std::function<now::apps::AppResult(const RunConfig&)> seq;
    std::function<Versions(const RunConfig&, Tracer&)> run;
  };
  struct Reference {
    double checksum = 0;
    double host_s = 0;
  };

  template <typename P>
  static Instance instance(std::string app, std::string params, P p,
                           bool exact, std::function<void(const P&)> inputs);

  std::string name_;
  std::vector<Instance> instances_;
  std::vector<Reference> references_;
};

}  // namespace perfbench
