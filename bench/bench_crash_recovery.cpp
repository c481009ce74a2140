// Checkpoint/rollback overhead curve: one deterministic restart-aware
// workload, run with the recovery knobs progressively armed, measuring what
// barrier-aligned checkpointing costs on the wire and what a node crash
// costs to roll back — and proving neither changes a byte of the result.
//
// Legs:
//   off   — every knob off (perfect bypassed wire, no checkpoint pass).
//           Messages, payload and wire bytes must match bench/baselines/
//           crash_recovery.json *exactly*: with the knobs at rest this PR
//           must not move a single byte on the wire.
//   ckpt  — TMK_CKPT_EVERY=2 equivalent: the checkpoint pass runs at every
//           other barrier (staging, sema query, commit round), still on the
//           bypassed perfect wire.  Gated: same checksum as off, wire-byte
//           ratio under the baseline cap, durable epochs actually banked.
//   crash — checkpointing on and node 3 scripted to die mid lock chain;
//           detection via retransmit exhaustion (the reliability channel is
//           forced on), rollback to the last durable epoch, replay.  Gated:
//           same checksum as off, at least one recovery.
#include <cstdio>
#include <cstring>
#include <vector>

#include "tmk/tmk.h"

namespace {

using namespace now;

constexpr std::uint32_t kNodes = 8;
constexpr std::size_t kRounds = 10;
constexpr std::size_t kWordsPerPage = tmk::kPageSize / sizeof(std::uint64_t);

struct Leg {
  const char* name;
  std::uint32_t ckpt_every;
  std::uint32_t crash_node;  // DsmConfig::kNoCrashNode = no crash
  std::uint32_t crash_at;
};

struct LegResult {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t checksum = 0;
  bool completed = false;
  tmk::DsmStatsSnapshot dsm;
};

// Restart-aware by construction: progress (completed rounds) lives in shared
// memory and advances just before each round's barrier; every write is an
// idempotent function of (round, node, slot), so a replay from any durable
// epoch reproduces the bytes.  Deliberately lock-free: lock-grant chains
// order themselves by host scheduling, which perturbs message counts run to
// run, and the off leg is gated on *exact* wire identity.  A barrier-only
// workload's traffic is deterministic (the crash_test sweep covers the lock
// and GC crash sites).
LegResult run(const Leg& leg) {
  tmk::DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = 4 << 20;
  c.time.cpu_scale = 0.0;
  // Explicit assignment overrides any TMK_* env defaults: each leg measures
  // exactly the configuration it names.
  c.net_fault = {};
  c.net_reliable = false;
  c.meta_ceiling_bytes = 0;
  // The push protocols stay off: update-push counts depend on thread
  // interleaving, and the off leg is gated on exact wire identity.
  c.update_mode = false;
  c.lock_push_bytes = 0;
  c.ckpt_every = leg.ckpt_every;
  c.net_crash_node = leg.crash_node;
  c.net_crash_at = leg.crash_at;
  // Detection latency is host time (retransmit backoff): keep the bench
  // snappy without weakening the protocol under test.
  c.net_max_retries = 3;

  LegResult r;
  tmk::DsmRuntime rt(c);
  const tmk::RunReport report = rt.run_spmd([&](tmk::Tmk& t) {
    tmk::gptr<std::uint64_t> ctl(tmk::kPageSize);
    tmk::gptr<std::uint64_t> data(2 * tmk::kPageSize);
    const std::uint32_t id = t.id();
    const std::size_t start = ctl[0];
    std::uint64_t sink = 0;
    t.barrier();
    for (std::size_t r2 = start; r2 < kRounds; ++r2) {
      for (std::size_t k = 0; k < 48; ++k)
        data[id * kWordsPerPage + (r2 * 11 + k) % kWordsPerPage] =
            (r2 + 1) * 1000003u + id * 131u + k;
      ctl[8 + id] = (r2 + 1) * (id * 131u + 7);
      if (id == 0) ctl[0] = r2 + 1;
      t.barrier();
      // Cross-node reads after the barrier: each node pulls a word of its
      // neighbor's fresh page, so every round moves diffs on the wire.
      sink += data[((id + 1) % kNodes) * kWordsPerPage +
                   (r2 * 13) % kWordsPerPage];
    }
    if (sink == static_cast<std::uint64_t>(-1)) std::abort();
    if (id == 0) {
      std::uint64_t sum = ctl[0];
      for (std::uint32_t n = 0; n < kNodes; ++n)
        sum = sum * 1099511628211ULL + ctl[8 + n];
      for (std::size_t w = 0; w < kNodes * kWordsPerPage; ++w)
        sum = sum * 1099511628211ULL + data[w];
      r.checksum = sum;
    }
  });

  r.completed = report.completed;
  const auto tr = rt.traffic();
  r.messages = tr.messages;
  r.payload_bytes = tr.payload_bytes;
  r.wire_bytes = tr.wire_bytes;
  r.dsm = rt.total_stats();
  return r;
}

std::vector<Leg> legs() {
  // Crash at the victim's sync-point index 4 (its barrier arrivals are its
  // only sync points here): round 3's barrier, a checkpoint already durable
  // behind it and most of the run still ahead.
  return {{"off", 0, tmk::DsmConfig::kNoCrashNode, 0},
          {"ckpt", 2, tmk::DsmConfig::kNoCrashNode, 0},
          {"crash", 2, 3, 4}};
}

int crash_json() {
  std::printf("{\n  \"crash_recovery\": {\n"
              "    \"nodes\": %u,\n    \"rounds\": %zu,\n    \"legs\": {\n",
              kNodes, kRounds);
  bool first = true;
  for (const Leg& leg : legs()) {
    const LegResult r = run(leg);
    std::printf(
        "%s      \"%s\": {\"messages\": %llu, \"payload_bytes\": %llu, "
        "\"wire_bytes\": %llu, \"checksum\": %llu, \"completed\": %d,\n"
        "        \"ckpt_epochs\": %llu, \"ckpt_bytes_written\": %llu, "
        "\"ckpt_pages_incremental\": %llu, \"recoveries\": %llu, "
        "\"rollback_epochs_lost\": %llu}",
        first ? "" : ",\n", leg.name, (unsigned long long)r.messages,
        (unsigned long long)r.payload_bytes, (unsigned long long)r.wire_bytes,
        (unsigned long long)r.checksum, r.completed ? 1 : 0,
        (unsigned long long)r.dsm.ckpt_epochs,
        (unsigned long long)r.dsm.ckpt_bytes_written,
        (unsigned long long)r.dsm.ckpt_pages_incremental,
        (unsigned long long)r.dsm.recoveries,
        (unsigned long long)r.dsm.rollback_epochs_lost);
    first = false;
  }
  std::printf("\n    }\n  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--json")) return crash_json();

  std::printf("== Checkpoint/rollback: recovery overhead, %u nodes x %zu"
              " rounds ==\n", kNodes, kRounds);
  std::printf("%-7s %9s %11s %11s %7s %8s %8s %6s %7s  %s\n", "leg",
              "messages", "payload", "wire", "ckptep", "ckptKB", "incpg",
              "recov", "eplost", "checksum");
  std::uint64_t off_wire = 0;
  for (const Leg& leg : legs()) {
    const LegResult r = run(leg);
    if (!std::strcmp(leg.name, "off")) off_wire = r.wire_bytes;
    std::printf("%-7s %9llu %11llu %11llu %7llu %8.1f %8llu %6llu %7llu  %llu",
                leg.name, (unsigned long long)r.messages,
                (unsigned long long)r.payload_bytes,
                (unsigned long long)r.wire_bytes,
                (unsigned long long)r.dsm.ckpt_epochs,
                (double)r.dsm.ckpt_bytes_written / 1024.0,
                (unsigned long long)r.dsm.ckpt_pages_incremental,
                (unsigned long long)r.dsm.recoveries,
                (unsigned long long)r.dsm.rollback_epochs_lost,
                (unsigned long long)r.checksum);
    if (off_wire != 0)
      std::printf("  (%.3fx wire)", (double)r.wire_bytes / (double)off_wire);
    std::printf("\n");
  }
  return 0;
}
