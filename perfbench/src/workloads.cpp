#include "workloads.h"

#include <chrono>
#include <sstream>

#include "apps/fft3d/fft3d.h"
#include "apps/qsort/qsort.h"
#include "apps/sweep3d/sweep3d.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"
#include "common/check.h"
#include "common/rng.h"
#include "omp/omp.h"
#include "tmk/msgs.h"
#include "tmk/runtime.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// The paper's cluster: eight workstations.
constexpr std::uint32_t kNodes = 8;

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Message types whose per-type counts the traced run reports.
constexpr now::tmk::MsgType kReportedTypes[] = {
    now::tmk::kFork,          now::tmk::kJoin,
    now::tmk::kShutdown,      now::tmk::kDiffRequest,
    now::tmk::kDiffReply,     now::tmk::kLockAcquire,
    now::tmk::kLockForward,   now::tmk::kLockGrant,
    now::tmk::kBarrierArrive, now::tmk::kBarrierDepart,
    now::tmk::kSemaSignal,    now::tmk::kSemaAck,
    now::tmk::kSemaWait,      now::tmk::kSemaGrant,
    now::tmk::kCondWait,      now::tmk::kCondSignal,
    now::tmk::kCondBroadcast, now::tmk::kCondWaitAck,
    now::tmk::kAllocRequest,  now::tmk::kAllocReply,
    now::tmk::kFreeRequest,   now::tmk::kFreeAck,
    now::tmk::kUpdatePush,    now::tmk::kUpdateDeny,
    now::tmk::kLockPushDeny,  now::tmk::kTreeArrive,
    now::tmk::kTreeDepart};

}  // namespace

RunConfig pinned_config() {
  RunConfig c;
  c.dsm.num_nodes = kNodes;
  c.dsm.heap_bytes = std::size_t{96} << 20;
  c.dsm.time.cpu_scale = 0.0;
  c.mpi.num_ranks = kNodes;
  c.mpi.time.cpu_scale = 0.0;
  return c;
}

std::string describe_knobs(const RunConfig& cfg) {
  const auto& d = cfg.dsm;
  std::ostringstream os;
  os << "nodes=" << d.num_nodes << " heap_mb=" << (d.heap_bytes >> 20)
     << " cpu_scale=" << d.time.cpu_scale
     << " mpi_cpu_scale=" << cfg.mpi.time.cpu_scale
     << " update_mode=" << d.update_mode
     << " lock_push_bytes=" << d.lock_push_bytes
     << " prefetch_pages=" << d.prefetch_pages
     << " diff_cache_bytes=" << d.diff_cache_bytes_per_page
     << " barrier_arity=" << d.barrier_tree_arity
     << " shard_managers=" << d.shard_managers
     << " gc_barriers=" << d.gc_at_barriers
     << " gc_fork_join=" << d.gc_fork_join
     << " meta_ceiling=" << d.meta_ceiling_bytes
     << " net_reliable=" << d.net_reliable
     << " chaos=" << d.chaos_enabled() << " crash=" << d.crash_enabled()
     << " ckpt_every=" << d.ckpt_every;
  return os.str();
}

int Tracer::begin(const std::string& name) {
  if (!on_) return -1;
  spans_.push_back({name, now_s(), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_s = now_s();
}

template <typename P>
Workload::Instance Workload::instance(std::string app, std::string params,
                                      P p, bool exact,
                                      std::function<void(const P&)> inputs) {
  Instance in;
  in.app = app;
  in.params = std::move(params);
  in.exact = exact;
  in.make_inputs = [inputs, p] {
    if (inputs) inputs(p);
  };
  // Unqualified calls: each application's entry points are found through
  // its Params type.
  in.seq = [p](const RunConfig& cfg) { return run_seq(p, cfg.dsm.time); };
  in.run = [app, p](const RunConfig& cfg, Tracer& tracer) {
    Versions v;
    auto timed = [&](const char* version, double& secs, auto&& call) {
      const int span = tracer.begin("apps." + app + "." + version);
      const auto t0 = Clock::now();
      auto r = call();
      secs = std::chrono::duration<double>(Clock::now() - t0).count();
      tracer.end(span);
      return r;
    };
    v.omp = timed("omp", v.omp_s, [&] { return run_omp(p, cfg.dsm); });
    v.tmk = timed("tmk", v.tmk_s, [&] { return run_tmk(p, cfg.dsm); });
    v.mpi = timed("mpi", v.mpi_s, [&] { return run_mpi(p, cfg.mpi); });
    return v;
  };
  return in;
}

std::optional<Workload> Workload::make(const std::string& name,
                                       std::uint64_t seed, bool quick) {
  namespace apps = now::apps;
  Workload w;
  w.name_ = name;
  std::ostringstream sz;
  if (name == "bsp") {
    apps::sweep3d::Params sweep;
    sweep.nx = sweep.ny = sweep.nz = quick ? 24 : 48;
    sweep.k_block = quick ? 4 : 6;
    sz << sweep.nx << "^3 k_block=" << sweep.k_block;
    w.instances_.push_back(instance<apps::sweep3d::Params>(
        "sweep3d", sz.str(), sweep, false, nullptr));

    // Table 2's x6 iterations: long enough for epoch-stable sharing to
    // repeat after the adaptation window.
    apps::fft3d::Params fft;
    fft.nx = fft.ny = quick ? 32 : 64;
    fft.nz = quick ? 16 : 32;
    fft.iters = 6;
    fft.seed = seed;
    sz.str("");
    sz << fft.nx << "x" << fft.ny << "x" << fft.nz << " iters=" << fft.iters
       << " seed=" << fft.seed;
    w.instances_.push_back(instance<apps::fft3d::Params>(
        "fft3d", sz.str(), fft, false, [](const apps::fft3d::Params& p) {
          std::vector<apps::fft3d::Complex> u(p.nx * p.ny * p.nz);
          apps::fft3d::fill_initial(u.data(), p);
        }));
  } else if (name == "migratory") {
    // Branch-and-bound work varies about 2x between random instances when
    // the task pool goes deep (12 cities, leaf depth 7), so a round solves
    // many instances with a shallow pool (leaf depth 9: at most 110 tasks,
    // each a lock-protected dequeue plus a bound update) drawn from the
    // seed.  Their sum varies by a few percent from seed to seed.
    const int count = quick ? 2 : 16;
    now::Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      apps::tsp::Params tsp;
      tsp.ncities = quick ? 10 : 12;
      tsp.exhaustive_depth = quick ? 7 : 9;
      tsp.seed = rng.next_u64();
      sz.str("");
      sz << tsp.ncities << " cities depth=" << tsp.exhaustive_depth
         << " seed=" << tsp.seed;
      w.instances_.push_back(instance<apps::tsp::Params>(
          "tsp", sz.str(), tsp, true, [](const apps::tsp::Params& p) {
            (void)apps::tsp::make_distances(p);
          }));
    }
  } else if (name == "bulklock") {
    // Table 2's x8 steps.
    apps::water::Params water;
    water.nmol = quick ? 128 : 512;
    water.steps = quick ? 4 : 8;
    water.seed = seed;
    sz << water.nmol << " molecules steps=" << water.steps
       << " seed=" << water.seed;
    w.instances_.push_back(instance<apps::water::Params>(
        "water", sz.str(), water, false, [](const apps::water::Params& p) {
          (void)apps::water::make_positions(p);
        }));

    // The bytes QSORT's task queue moves depend on how the input
    // partitions; six inputs drawn from the seed average that out.
    now::Rng rng(seed);
    for (int i = 0; i < (quick ? 1 : 6); ++i) {
      apps::qs::Params qs;
      qs.n = std::size_t{1} << (quick ? 15 : 18);
      qs.bubble_threshold = quick ? 512 : 1024;
      qs.seed = rng.next_u64();
      sz.str("");
      sz << qs.n << " keys bubble=" << qs.bubble_threshold
         << " seed=" << qs.seed;
      w.instances_.push_back(instance<apps::qs::Params>(
          "qsort", sz.str(), qs, false, [](const apps::qs::Params& p) {
            (void)apps::qs::make_input(p);
          }));
    }
  } else {
    return std::nullopt;
  }
  return w;
}

std::string Workload::describe() const {
  std::ostringstream os;
  for (const Instance& in : instances_)
    os << "  " << in.app << ": " << in.params << "\n";
  return os.str();
}

void Workload::setup(const RunConfig& cfg) const {
  for (const Instance& in : instances_) in.make_inputs();
  { now::tmk::DsmRuntime dsm(cfg.dsm); }
  { now::omp::OmpRuntime omp(cfg.dsm); }
  { now::mpi::MpiRuntime mpi(cfg.mpi); }
}

void Workload::run_references(const RunConfig& cfg, Tracer& tracer) {
  references_.clear();
  for (const Instance& in : instances_) {
    const int span = tracer.begin("apps." + in.app + ".seq");
    const auto t0 = Clock::now();
    const now::apps::AppResult r = in.seq(cfg);
    references_.push_back(
        {r.checksum,
         std::chrono::duration<double>(Clock::now() - t0).count()});
    tracer.end(span);
  }
}

double Workload::reference_host_s() const {
  double total = 0;
  for (const Reference& r : references_) total += r.host_s;
  return total;
}

RoundResult Workload::run_round(const RunConfig& cfg, Tracer& tracer) const {
  NOW_CHECK_EQ(references_.size(), instances_.size())
      << "run_references must precede run_round";
  RoundResult out;
  double model_us = 0, mpi_us = 0;
  double omp_s = 0, tmk_s = 0, mpi_s = 0;  // host wall time
  now::sim::TrafficSnapshot dsm_traffic, mpi_traffic;
  now::tmk::DsmStatsSnapshot dsm;

  const int round_span = tracer.begin("round." + name_);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& in = instances_[i];
    const double reference = references_[i].checksum;
    const Versions v = in.run(cfg, tracer);
    struct Checked {
      const char* version;
      const now::apps::AppResult& r;
    };
    for (const Checked& c : {Checked{"omp", v.omp}, Checked{"tmk", v.tmk},
                             Checked{"mpi", v.mpi}}) {
      const bool match =
          in.exact ? c.r.checksum == reference
                   : now::apps::checksum_close(c.r.checksum, reference);
      const std::uint64_t retransmits = c.r.traffic.chan.retransmits;
      if (!match || retransmits != 0) {
        ++out.failed;
        std::ostringstream os;
        os.precision(17);
        os << in.app << "." << c.version << " (" << in.params
           << "): checksum " << c.r.checksum << " vs sequential "
           << reference << ", retransmits " << retransmits;
        out.failures.push_back(os.str());
      }
    }
    out.attempted += 3;
    std::ostringstream detail;
    detail << in.app << " (" << in.params << "): omp "
           << v.omp.virtual_time_us / 1000.0 << " ms "
           << v.omp.traffic.messages << " msgs, tmk "
           << v.tmk.virtual_time_us / 1000.0 << " ms "
           << v.tmk.traffic.messages << " msgs";
    out.details.push_back(detail.str());

    out.instance_wall_s.push_back(v.omp_s + v.tmk_s);
    model_us += v.omp.virtual_time_us + v.tmk.virtual_time_us;
    mpi_us += v.mpi.virtual_time_us;
    omp_s += v.omp_s;
    tmk_s += v.tmk_s;
    mpi_s += v.mpi_s;
    dsm_traffic += v.omp.traffic;
    dsm_traffic += v.tmk.traffic;
    mpi_traffic += v.mpi.traffic;
    dsm += v.omp.dsm;
    dsm += v.tmk.dsm;
  }
  tracer.end(round_span);

  Metrics& e = out.end_to_end;
  e["model_ms"] = {model_us / 1000.0, "ms"};
  e["messages"] = {static_cast<double>(dsm_traffic.messages), "count"};
  e["wire_mb"] = {dsm_traffic.wire_mbytes(), "MB"};
  e["wall_s"] = {omp_s + tmk_s, "s"};

  Metrics& l = out.layers;
  l["apps.omp.host_ms"] = {omp_s * 1000.0, "ms"};
  l["apps.tmk.host_ms"] = {tmk_s * 1000.0, "ms"};
  l["apps.mpi.host_ms"] = {mpi_s * 1000.0, "ms"};

  auto count = [&](const std::string& name, std::uint64_t v) {
    l[name] = {static_cast<double>(v), "count"};
  };
  count("tmk.fault.read_faults", dsm.read_faults);
  count("tmk.fault.write_faults", dsm.write_faults);
  count("tmk.fault.cold_zero_fills", dsm.cold_zero_fills);
  count("tmk.fault.twins_created", dsm.twins_created);
  count("tmk.fault.diff_fetches", dsm.diff_fetches);
  count("tmk.fault.invalidations", dsm.invalidations);

  count("tmk.diff.diffs_created", dsm.diffs_created);
  count("tmk.diff.diffs_applied", dsm.diffs_applied);
  l["tmk.diff.diff_bytes_created"] = {
      static_cast<double>(dsm.diff_bytes_created), "B"};
  l["tmk.diff.cache_hit_ratio"] = {
      ratio(dsm.diff_cache_hits, dsm.diff_cache_hits + dsm.diff_fetches),
      "ratio"};
  l["tmk.diff.prefetch_useful_ratio"] = {
      ratio(dsm.prefetch_hits, dsm.prefetch_pages_filled), "ratio"};

  const auto& by_type = dsm_traffic.messages_by_type;
  count("tmk.sync.barriers", dsm.barriers);
  count("tmk.sync.lock_acquires", dsm.lock_acquires);
  l["tmk.sync.lock_cached_ratio"] = {
      ratio(dsm.lock_acquires_cached, dsm.lock_acquires), "ratio"};
  l["tmk.sync.barrier_msgs_per_barrier"] = {
      ratio(dsm.barrier_msgs_sent + dsm.barrier_msgs_recv, dsm.barriers),
      "count"};
  count("tmk.sync.msgs.lock", by_type[now::tmk::kLockAcquire] +
                                  by_type[now::tmk::kLockForward] +
                                  by_type[now::tmk::kLockGrant]);
  count("tmk.sync.msgs.barrier", by_type[now::tmk::kBarrierArrive] +
                                     by_type[now::tmk::kBarrierDepart] +
                                     by_type[now::tmk::kTreeArrive] +
                                     by_type[now::tmk::kTreeDepart]);
  count("tmk.sync.msgs.diff",
        by_type[now::tmk::kDiffRequest] + by_type[now::tmk::kDiffReply]);
  count("tmk.sync.msgs.fork", by_type[now::tmk::kFork] +
                                  by_type[now::tmk::kJoin] +
                                  by_type[now::tmk::kShutdown]);
  count("tmk.sync.update_pushes_sent", dsm.update_pushes_sent);
  count("tmk.sync.update_push_hits", dsm.update_push_hits);
  count("tmk.sync.lock_pushes_sent", dsm.lock_pushes_sent);
  count("tmk.sync.lock_push_hits", dsm.lock_push_hits);

  count("tmk.gc.records_reclaimed", dsm.gc_records_reclaimed);
  l["tmk.gc.diff_bytes_reclaimed"] = {
      static_cast<double>(dsm.gc_diff_bytes_reclaimed), "B"};
  count("tmk.gc.exchanges", dsm.gc_exchanges);

  l["simnet.payload_bytes"] = {static_cast<double>(dsm_traffic.payload_bytes),
                               "B"};
  count("simnet.chan.retransmits", dsm_traffic.chan.retransmits);
  for (const now::tmk::MsgType t : kReportedTypes)
    count(std::string("simnet.msgs.") + now::tmk::msg_type_name(t),
          by_type[t]);

  l["mpi.model_ms"] = {mpi_us / 1000.0, "ms"};
  count("mpi.messages", mpi_traffic.messages);
  return out;
}

}  // namespace perfbench
