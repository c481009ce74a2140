#include "probes.h"

#include <chrono>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "mpi/mpi.h"
#include "omp/omp.h"
#include "simnet/network.h"
#include "tmk/diff.h"
#include "tmk/runtime.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using now::tmk::kPageSize;

constexpr std::uint32_t kProbeNodes = 4;
constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double model_us(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1000.0;
}

now::tmk::DsmConfig probe_dsm(const RunConfig& cfg, std::uint32_t nodes) {
  now::tmk::DsmConfig c = cfg.dsm;
  c.num_nodes = nodes;
  return c;
}

void check_completed(const now::tmk::RunReport& report,
                     const std::string& probe, ProbeResult& out) {
  if (!report.completed)
    out.failures.push_back(probe + " probe: run did not complete");
}

// Joins per-node sample buffers once the run has returned.
std::vector<double> concat(const std::vector<std::vector<double>>& per_node) {
  std::vector<double> out;
  for (const auto& s : per_node) out.insert(out.end(), s.begin(), s.end());
  return out;
}

// Empty `parallel` regions: the fork message out, the join back.
void fork_join(const RunConfig& cfg, ProbeResult& out) {
  constexpr int kRegions = 1000;
  std::vector<double> host, model;
  now::omp::OmpRuntime rt(probe_dsm(cfg, kProbeNodes));
  rt.run([&](now::omp::Team& team) {
    auto& clock = team.master().node.clock();
    for (int i = 0; i < kRegions; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t m0 = clock.now_ns();
      team.parallel([](now::omp::Par&) {});
      host.push_back(since_us(t0));
      model.push_back(model_us(m0, clock.now_ns()));
    }
  });
  add_latency(out.metrics, "omp.fork_join_us", host, "us", &model);
}

// Node 0 dirties 64 bytes of each page; after a barrier node 1 reads each
// page once (fault, diff request, apply) and then writes it (write fault on
// a valid page: the twin copy).  The pages lie further apart than the
// prefetch window, so every read pays its own round trip.
void faults(const RunConfig& cfg, ProbeResult& out) {
  constexpr std::size_t kPages = 256;
  const std::size_t stride = (cfg.dsm.prefetch_pages + 1) * kWordsPerPage;
  NOW_CHECK_LE((kPages * stride + kWordsPerPage) * sizeof(std::uint64_t),
               cfg.dsm.heap_bytes)
      << "fault probe pages do not fit the shared heap";
  constexpr std::uint64_t kEpochs = 4;
  std::vector<double> read_host, read_model, write_host, write_model;
  std::uint64_t wrong = 0;
  now::tmk::DsmRuntime rt(probe_dsm(cfg, 2));
  const now::tmk::RunReport report = rt.run_spmd([&](now::tmk::Tmk& t) {
    now::tmk::gptr<std::uint64_t> base(kPageSize);
    auto& clock = t.node.clock();
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      if (t.id() == 0)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          for (std::size_t k = 0; k < 8; ++k)
            base[pg * stride + k] = e * 1000 + pg;
      t.barrier();
      if (t.id() == 1) {
        for (std::size_t pg = 0; pg < kPages; ++pg) {
          auto t0 = Clock::now();
          std::uint64_t m0 = clock.now_ns();
          const std::uint64_t v = base[pg * stride];
          read_host.push_back(since_us(t0));
          read_model.push_back(model_us(m0, clock.now_ns()));
          if (v != e * 1000 + pg) ++wrong;

          t0 = Clock::now();
          m0 = clock.now_ns();
          base[pg * stride + 8] = v;
          write_host.push_back(since_us(t0));
          write_model.push_back(model_us(m0, clock.now_ns()));
        }
      }
      t.barrier();
    }
  });
  check_completed(report, "tmk.fault", out);
  add_latency(out.metrics, "tmk.fault.remote_read_us", read_host, "us",
              &read_model);
  add_latency(out.metrics, "tmk.fault.write_twin_us", write_host, "us",
              &write_model);
  if (wrong != 0)
    out.failures.push_back("tmk.fault probe: " + std::to_string(wrong) +
                           " stale remote reads");
}

// The diff engine on a sparse page (16 scattered 4-byte stores) and a dense
// one (half the page rewritten), as the protocol calls it: appended into a
// reused scratch buffer.
void diffs(ProbeResult& out) {
  constexpr int kReps = 2000;
  now::Rng rng(42);
  std::vector<std::uint8_t> twin(kPageSize);
  for (auto& b : twin) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> sparse = twin, dense = twin;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t k = 0; k < 4; ++k) sparse[i * 256 + 32 + k] ^= 0x5a;
  for (std::size_t i = 1024; i < 1024 + 2048; ++i) dense[i] ^= 0xa5;

  struct Case {
    const char* name;
    const std::vector<std::uint8_t>& cur;
  };
  for (const Case& c : {Case{"sparse", sparse}, Case{"dense", dense}}) {
    now::tmk::DiffBytes scratch;
    scratch.reserve(2 * kPageSize);
    std::vector<double> create_ns, apply_ns;
    std::vector<std::uint8_t> page(kPageSize);
    bool same = true;
    for (int i = 0; i < kReps; ++i) {
      scratch.clear();
      auto t0 = Clock::now();
      now::tmk::diff_append(scratch, twin.data(), c.cur.data(), kPageSize);
      create_ns.push_back(since_us(t0) * 1000.0);

      std::memcpy(page.data(), twin.data(), kPageSize);
      t0 = Clock::now();
      now::tmk::diff_apply(page.data(), kPageSize, scratch);
      apply_ns.push_back(since_us(t0) * 1000.0);
      same = same && page == c.cur;
    }
    const std::string name = c.name;
    add_latency(out.metrics, "tmk.diff.create_" + name + "_ns", create_ns,
                "ns");
    add_latency(out.metrics, "tmk.diff.apply_" + name + "_ns", apply_ns,
                "ns");
    if (!same)
      out.failures.push_back("tmk.diff probe: " + name +
                             " diff does not rebuild the page");
  }
}

void barriers(const RunConfig& cfg, ProbeResult& out) {
  constexpr int kBarriers = 1000;
  std::vector<double> host, model;
  now::tmk::DsmRuntime rt(probe_dsm(cfg, kProbeNodes));
  const now::tmk::RunReport report = rt.run_spmd([&](now::tmk::Tmk& t) {
    auto& clock = t.node.clock();
    for (int i = 0; i < kBarriers; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t m0 = clock.now_ns();
      t.barrier();
      if (t.id() == 0) {
        host.push_back(since_us(t0));
        model.push_back(model_us(m0, clock.now_ns()));
      }
    }
  });
  check_completed(report, "tmk.sync.barrier", out);
  add_latency(out.metrics, "tmk.sync.barrier_us", host, "us", &model);
}

// Every node passes one lock around, each hold incrementing 64 bytes on
// each of `pages` pages; the span is acquire through release.
void locks(const RunConfig& cfg, const char* name, std::size_t pages,
           ProbeResult& out) {
  constexpr std::uint64_t kHolds = 250;  // per node
  std::vector<std::vector<double>> host(kProbeNodes), model(kProbeNodes);
  std::uint64_t wrong = 0;
  now::tmk::DsmRuntime rt(probe_dsm(cfg, kProbeNodes));
  const now::tmk::RunReport report = rt.run_spmd([&](now::tmk::Tmk& t) {
    now::tmk::gptr<std::uint64_t> base(kPageSize);
    auto& clock = t.node.clock();
    t.barrier();
    for (std::uint64_t i = 0; i < kHolds; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t m0 = clock.now_ns();
      t.lock_acquire(0);
      for (std::size_t pg = 0; pg < pages; ++pg)
        for (std::size_t k = 0; k < 8; ++k) base[pg * kWordsPerPage + k] += 1;
      t.lock_release(0);
      host[t.id()].push_back(since_us(t0));
      model[t.id()].push_back(model_us(m0, clock.now_ns()));
    }
    t.barrier();
    if (t.id() == 0)
      for (std::size_t pg = 0; pg < pages; ++pg)
        for (std::size_t k = 0; k < 8; ++k)
          if (base[pg * kWordsPerPage + k] != kHolds * kProbeNodes) ++wrong;
  });
  check_completed(report, std::string("tmk.sync.") + name, out);
  const std::vector<double> all_model = concat(model);
  add_latency(out.metrics, std::string("tmk.sync.") + name, concat(host), "us",
              &all_model);
  if (wrong != 0)
    out.failures.push_back(std::string("tmk.sync probe ") + name + ": " +
                           std::to_string(wrong) + " lost updates");
}

// One small message through Network::send and Mailbox::pop.
void send_pop(ProbeResult& out) {
  constexpr int kMessages = 10000;
  std::vector<double> ns;
  now::sim::Network net(2, now::sim::NetworkModel::udp_ethernet100());
  bool delivered = true;
  for (int i = 0; i < kMessages; ++i) {
    now::sim::Message m;
    m.type = 1;
    m.src = 0;
    m.dst = 1;
    m.payload.resize(64);
    const auto t0 = Clock::now();
    net.send(std::move(m));
    const auto r = net.recv(1);
    ns.push_back(since_us(t0) * 1000.0);
    delivered = delivered && r.has_value() && r->payload.size() == 64;
  }
  net.close_all();
  add_latency(out.metrics, "simnet.send_pop_ns", ns, "ns");
  if (!delivered) out.failures.push_back("simnet probe: message lost");
}

// Rank 0 and rank 1 bounce an 8-byte message.
void pingpong(const RunConfig& cfg, ProbeResult& out) {
  constexpr int kRoundTrips = 1000;
  std::vector<double> host, model;
  now::mpi::MpiConfig c = cfg.mpi;
  c.num_ranks = 2;
  now::mpi::MpiRuntime rt(c);
  rt.run([&](now::mpi::Comm& comm) {
    std::uint64_t v = 0;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (comm.rank() == 0) {
        const auto t0 = Clock::now();
        const std::uint64_t m0 = comm.clock().now_ns();
        v = static_cast<std::uint64_t>(i);
        comm.send_t(&v, 1, 1, 0);
        comm.recv_t(&v, 1, 1, 0);
        host.push_back(since_us(t0));
        model.push_back(model_us(m0, comm.clock().now_ns()));
      } else {
        comm.recv_t(&v, 1, 0, 0);
        comm.send_t(&v, 1, 0, 0);
      }
    }
  });
  add_latency(out.metrics, "mpi.pingpong_us", host, "us", &model);
}

}  // namespace

ProbeResult run_probes(const RunConfig& cfg, Tracer& tracer) {
  ProbeResult out;
  auto probe = [&](const char* name, auto&& fn) {
    const int span = tracer.begin(std::string("probe.") + name);
    fn();
    tracer.end(span);
  };
  probe("fork_join", [&] { fork_join(cfg, out); });
  probe("faults", [&] { faults(cfg, out); });
  probe("diffs", [&] { diffs(out); });
  probe("barrier", [&] { barriers(cfg, out); });
  probe("lock_small", [&] { locks(cfg, "lock_small_us", 1, out); });
  probe("lock_pages", [&] { locks(cfg, "lock_pages_us", 4, out); });
  probe("send_pop", [&] { send_pop(out); });
  probe("pingpong", [&] { pingpong(cfg, out); });
  return out;
}

}  // namespace perfbench
