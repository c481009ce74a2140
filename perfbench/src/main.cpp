// The repository benchmark: runs one workload's application instances in
// rounds for a fixed time and prints the metrics as JSON on the last line.
//
//   perfbench --workload <bsp|migratory|bulklock> --seed <n> --seconds <s>
//             --trace <0|1> [--quick]
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, then runs the layer probes, and reports the per-layer
// metrics plus the tracing overhead.  See README.md for what each metric
// means and which layer should move it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "probes.h"
#include "workloads.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Metrics;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool quick = false;
};

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <bsp|migratory|bulklock> "
               "--seed <n> --seconds <s> --trace <0|1> [--quick]\n";
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = *v != '\0' && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = !std::strcmp(v, "0") || !std::strcmp(v, "1");
      a.trace = !std::strcmp(v, "1");
    } else {
      return false;
    }
  }
  return !a.workload.empty() && have_seed && have_seconds && have_trace;
}

// DsmConfig's defaults read TMK_* variables; the benchmark measures the
// protocol as the code defaults it, whatever the calling environment sets.
void unset_tmk_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("TMK_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

// Timed set-ups per untraced round.
constexpr int kSetupsPerRound = 3;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_metrics(const char* title, const Metrics& m) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : m)
    std::cout << "  " << name << " = " << metric.value << " " << metric.unit
              << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  unset_tmk_environment();

  auto workload =
      perfbench::Workload::make(args.workload, args.seed, args.quick);
  if (!workload) return usage("unknown workload");
  const perfbench::RunConfig cfg = perfbench::pinned_config();

  std::cout << "workload " << workload->name() << " seed " << args.seed
            << (args.quick ? " (quick sizes)" : "") << "\n"
            << workload->describe()
            << "knobs " << perfbench::describe_knobs(cfg) << "\n";

  // Set-up, timed apart from the runs: a few samples before every untraced
  // round, so the median spans the whole run.  The first set-up is untimed:
  // it also grows the process's heap, which no later set-up pays.
  const int setups_per_round = args.quick ? 1 : kSetupsPerRound;
  std::vector<double> setup_s;
  auto time_setups = [&] {
    for (int i = 0; i < setups_per_round; ++i) {
      const auto t0 = Clock::now();
      workload->setup(cfg);
      setup_s.push_back(elapsed_s(t0));
    }
  };
  if (!args.trace) workload->setup(cfg);

  perfbench::Tracer tracer(true), no_tracer(false);
  workload->run_references(cfg, args.trace ? tracer : no_tracer);
  std::uint64_t attempted = workload->instances(), failed = 0;

  // Rounds until the next one would overrun --seconds (at least one; with
  // tracing at least one untraced and one traced, alternating).
  perfbench::Samples untraced, layers;
  std::vector<double> fastest_wall_s(
      workload->instances(), std::numeric_limits<double>::infinity());
  std::vector<double> traced_wall_s;
  std::vector<std::string> failures;
  std::vector<double> round_s;
  const auto start = Clock::now();
  for (;;) {
    const bool traced_round = args.trace && untraced.rounds() > layers.rounds();
    const auto t0 = Clock::now();
    if (!args.trace) time_setups();
    const perfbench::RoundResult r =
        workload->run_round(cfg, traced_round ? tracer : no_tracer);
    round_s.push_back(elapsed_s(t0));
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    const double wall_s = r.end_to_end.at("wall_s").value;
    if (traced_round) {
      layers.add(r.layers);
      traced_wall_s.push_back(wall_s);
    } else {
      untraced.add(r.end_to_end);
      for (std::size_t i = 0; i < fastest_wall_s.size(); ++i)
        fastest_wall_s[i] = std::min(fastest_wall_s[i], r.instance_wall_s[i]);
    }
    std::cout << (traced_round ? "traced " : "") << "round " << round_s.size()
              << ": model_ms " << r.end_to_end.at("model_ms").value
              << " messages " << r.end_to_end.at("messages").value
              << " wall_s " << wall_s << "\n";
    if (round_s.size() == 1)
      for (const auto& d : r.details) std::cout << "  " << d << "\n";
    const bool need_more = args.trace && layers.rounds() == 0;
    if (!need_more &&
        elapsed_s(start) + perfbench::median(round_s) > args.seconds)
      break;
  }

  Metrics out;
  if (!args.trace) {
    std::cout << "setup samples (s):";
    for (const double s : setup_s) std::cout << " " << s;
    std::cout << "\n";
    out = untraced.medians();
    // Other work on the host can only slow a run down, and it comes and
    // goes within a run, so wall_s sums each instance's fastest round: the
    // program's own host cost.  The per-round sums are printed above.
    double wall_s = 0;
    for (const double s : fastest_wall_s) wall_s += s;
    out["wall_s"] = {wall_s, "s"};
    out["setup_s"] = {perfbench::median(setup_s), "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    print_metrics("end-to-end:", out);
  } else {
    out = layers.medians();
    out["apps.seq.host_ms"] = {workload->reference_host_s() * 1000.0, "ms"};
    out["trace.overhead_s"] = {perfbench::median(traced_wall_s) -
                                   untraced.medians().at("wall_s").value,
                               "s"};
    const perfbench::ProbeResult probes = perfbench::run_probes(cfg, tracer);
    for (const auto& [name, m] : probes.metrics) out[name] = m;
    failures.insert(failures.end(), probes.failures.begin(),
                    probes.failures.end());

    std::map<std::string, double> span_ms;
    for (const auto& s : tracer.spans())
      span_ms[s.name] += (s.end_s - s.start_s) * 1000.0;
    std::cout << "spans (total host ms; " << layers.rounds()
              << " traced rounds):\n";
    for (const auto& [name, ms] : span_ms)
      std::cout << "  " << name << " " << ms << "\n";
    print_metrics("per-layer (median over traced rounds, probes):", out);
  }

  for (const auto& f : failures) std::cout << "FAILED " << f << "\n";
  std::cout << "runs " << attempted << " runs_failed " << failed << " seed "
            << args.seed << "\n";
  std::cout << perfbench::result_json(failures.empty(), attempted, failed, out)
            << std::endl;
  return 0;
}
