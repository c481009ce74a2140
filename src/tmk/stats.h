// DSM protocol statistics, per node and aggregated.
#pragma once

#include <atomic>
#include <cstdint>

namespace now::tmk {

struct DsmStatsSnapshot {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t cold_zero_fills = 0;   // first-touch pages satisfied locally
  std::uint64_t diff_fetches = 0;      // remote fetch round trips
  std::uint64_t diff_cache_hits = 0;   // wanted diffs already held locally
  std::uint64_t diff_cache_bytes_saved = 0;  // diff-reply bytes those hits
                                             // avoided (chunk payloads +
                                             // framing; suppressed request
                                             // messages not counted)
  std::uint64_t prefetch_requests_batched = 0;  // neighbor pages folded into
                                                // fault-time kDiffRequests
  std::uint64_t prefetch_pages_filled = 0;   // neighbor pages whose fetched
                                             // chunks landed in the cache
  std::uint64_t prefetch_hits = 0;           // cache hits served by an entry
                                             // a prefetch put there
  std::uint64_t update_pushes_sent = 0;   // kUpdatePush messages (one per
                                          // reader per barrier, batched)
  std::uint64_t update_pages_pushed = 0;  // pages carried by those messages
  std::uint64_t update_push_hits = 0;     // pages a push made valid without
                                          // any remote fetch: validated at
                                          // the barrier (fault skipped) or
                                          // armed and consumed by a local
                                          // probe fault
  std::uint64_t update_demotions = 0;     // pages demoted to invalidate mode
                                          // by a reader's kUpdateDeny
  std::uint64_t update_pushes_stale = 0;  // pushes discarded because their
                                          // retransmission outlived the
                                          // barrier (lossy wire only)
  std::uint64_t lock_pushes_sent = 0;     // kLockGrant messages that carried
                                          // >= 1 migratory-pushed page
  std::uint64_t lock_pages_pushed = 0;    // pages carried by those grants
  std::uint64_t lock_push_hits = 0;       // pages a lock push made valid with
                                          // no remote fetch: validated at the
                                          // acquire or armed and consumed by
                                          // a local probe fault
  std::uint64_t lock_push_demotions = 0;  // pages demoted from a lock's
                                          // protected set by kLockPushDeny
  std::uint64_t diffs_created = 0;
  std::uint64_t diffs_applied = 0;
  std::uint64_t diff_bytes_created = 0;
  std::uint64_t twins_created = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t gc_records_reclaimed = 0;    // interval records dropped at
                                             // barrier GC (node + mgr logs)
  std::uint64_t gc_diff_bytes_reclaimed = 0; // diff-store bytes freed by GC
  std::uint64_t gc_exchanges = 0;            // on-demand GC exchanges this
                                             // node rooted (ceiling crossed)
  std::uint64_t relay_chunks_pruned = 0;     // retained relay cache entries
                                             // dropped once a grant/GC floor
                                             // proved them redundant
  std::uint64_t relay_bytes_pruned = 0;      // ...and their bytes
  std::uint64_t relay_pages_scanned = 0;     // pages the relay prune walked
                                             // (only when a floor rises)
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_acquires_cached = 0;  // satisfied locally (node was tail)
  std::uint64_t barriers = 0;
  std::uint64_t barrier_msgs_sent = 0;  // barrier-fabric messages this node
                                        // sent: kBarrierArrive/kBarrierDepart
                                        // + kTreeArrive/kTreeDepart (self-
                                        // sends included — the flat tree's
                                        // root arrives at itself)
  std::uint64_t barrier_msgs_recv = 0;  // ...and received.  max over nodes of
                                        // (sent+recv)/barriers is the per-
                                        // barrier fabric load the scaling
                                        // gate watches: O(N) at the flat
                                        // root, O(arity) everywhere in a
                                        // populated tree
  std::uint64_t sema_ops = 0;
  std::uint64_t cond_ops = 0;
  std::uint64_t flushes = 0;
  std::uint64_t ckpt_epochs = 0;          // checkpoint epochs promoted to
                                          // durable (root-counted, so the
                                          // total is the epoch count, not
                                          // N x epochs)
  std::uint64_t ckpt_bytes_written = 0;   // page bytes (re)written into the
                                          // checkpoint store
  std::uint64_t ckpt_pages_incremental = 0;  // assigned pages skipped because
                                             // their content matched the
                                             // durable image (the incremental
                                             // win the diff engine buys)
  std::uint64_t recoveries = 0;           // node-down rollback/restart cycles
  std::uint64_t rollback_epochs_lost = 0; // barrier epochs of progress rolled
                                          // back past the durable checkpoint

  DsmStatsSnapshot& operator+=(const DsmStatsSnapshot& o) {
    read_faults += o.read_faults;
    write_faults += o.write_faults;
    cold_zero_fills += o.cold_zero_fills;
    diff_fetches += o.diff_fetches;
    diff_cache_hits += o.diff_cache_hits;
    diff_cache_bytes_saved += o.diff_cache_bytes_saved;
    prefetch_requests_batched += o.prefetch_requests_batched;
    prefetch_pages_filled += o.prefetch_pages_filled;
    prefetch_hits += o.prefetch_hits;
    update_pushes_sent += o.update_pushes_sent;
    update_pages_pushed += o.update_pages_pushed;
    update_push_hits += o.update_push_hits;
    update_demotions += o.update_demotions;
    update_pushes_stale += o.update_pushes_stale;
    lock_pushes_sent += o.lock_pushes_sent;
    lock_pages_pushed += o.lock_pages_pushed;
    lock_push_hits += o.lock_push_hits;
    lock_push_demotions += o.lock_push_demotions;
    diffs_created += o.diffs_created;
    diffs_applied += o.diffs_applied;
    diff_bytes_created += o.diff_bytes_created;
    twins_created += o.twins_created;
    invalidations += o.invalidations;
    gc_records_reclaimed += o.gc_records_reclaimed;
    gc_diff_bytes_reclaimed += o.gc_diff_bytes_reclaimed;
    gc_exchanges += o.gc_exchanges;
    relay_chunks_pruned += o.relay_chunks_pruned;
    relay_bytes_pruned += o.relay_bytes_pruned;
    relay_pages_scanned += o.relay_pages_scanned;
    lock_acquires += o.lock_acquires;
    lock_acquires_cached += o.lock_acquires_cached;
    barriers += o.barriers;
    barrier_msgs_sent += o.barrier_msgs_sent;
    barrier_msgs_recv += o.barrier_msgs_recv;
    sema_ops += o.sema_ops;
    cond_ops += o.cond_ops;
    flushes += o.flushes;
    ckpt_epochs += o.ckpt_epochs;
    ckpt_bytes_written += o.ckpt_bytes_written;
    ckpt_pages_incremental += o.ckpt_pages_incremental;
    recoveries += o.recoveries;
    rollback_epochs_lost += o.rollback_epochs_lost;
    return *this;
  }
};

// Relaxed atomics: the compute and service threads of a node both count.
struct DsmStats {
  std::atomic<std::uint64_t> read_faults{0};
  std::atomic<std::uint64_t> write_faults{0};
  std::atomic<std::uint64_t> cold_zero_fills{0};
  std::atomic<std::uint64_t> diff_fetches{0};
  std::atomic<std::uint64_t> diff_cache_hits{0};
  std::atomic<std::uint64_t> diff_cache_bytes_saved{0};
  std::atomic<std::uint64_t> prefetch_requests_batched{0};
  std::atomic<std::uint64_t> prefetch_pages_filled{0};
  std::atomic<std::uint64_t> prefetch_hits{0};
  std::atomic<std::uint64_t> update_pushes_sent{0};
  std::atomic<std::uint64_t> update_pages_pushed{0};
  std::atomic<std::uint64_t> update_push_hits{0};
  std::atomic<std::uint64_t> update_demotions{0};
  std::atomic<std::uint64_t> update_pushes_stale{0};
  std::atomic<std::uint64_t> lock_pushes_sent{0};
  std::atomic<std::uint64_t> lock_pages_pushed{0};
  std::atomic<std::uint64_t> lock_push_hits{0};
  std::atomic<std::uint64_t> lock_push_demotions{0};
  std::atomic<std::uint64_t> diffs_created{0};
  std::atomic<std::uint64_t> diffs_applied{0};
  std::atomic<std::uint64_t> diff_bytes_created{0};
  std::atomic<std::uint64_t> twins_created{0};
  std::atomic<std::uint64_t> invalidations{0};
  std::atomic<std::uint64_t> gc_records_reclaimed{0};
  std::atomic<std::uint64_t> gc_diff_bytes_reclaimed{0};
  std::atomic<std::uint64_t> gc_exchanges{0};
  std::atomic<std::uint64_t> relay_chunks_pruned{0};
  std::atomic<std::uint64_t> relay_bytes_pruned{0};
  std::atomic<std::uint64_t> relay_pages_scanned{0};
  std::atomic<std::uint64_t> lock_acquires{0};
  std::atomic<std::uint64_t> lock_acquires_cached{0};
  std::atomic<std::uint64_t> barriers{0};
  std::atomic<std::uint64_t> barrier_msgs_sent{0};
  std::atomic<std::uint64_t> barrier_msgs_recv{0};
  std::atomic<std::uint64_t> sema_ops{0};
  std::atomic<std::uint64_t> cond_ops{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> ckpt_epochs{0};
  std::atomic<std::uint64_t> ckpt_bytes_written{0};
  std::atomic<std::uint64_t> ckpt_pages_incremental{0};
  std::atomic<std::uint64_t> recoveries{0};
  std::atomic<std::uint64_t> rollback_epochs_lost{0};

  DsmStatsSnapshot snapshot() const {
    DsmStatsSnapshot s;
    s.read_faults = read_faults.load(std::memory_order_relaxed);
    s.write_faults = write_faults.load(std::memory_order_relaxed);
    s.cold_zero_fills = cold_zero_fills.load(std::memory_order_relaxed);
    s.diff_fetches = diff_fetches.load(std::memory_order_relaxed);
    s.diff_cache_hits = diff_cache_hits.load(std::memory_order_relaxed);
    s.diff_cache_bytes_saved = diff_cache_bytes_saved.load(std::memory_order_relaxed);
    s.prefetch_requests_batched = prefetch_requests_batched.load(std::memory_order_relaxed);
    s.prefetch_pages_filled = prefetch_pages_filled.load(std::memory_order_relaxed);
    s.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
    s.update_pushes_sent = update_pushes_sent.load(std::memory_order_relaxed);
    s.update_pages_pushed = update_pages_pushed.load(std::memory_order_relaxed);
    s.update_push_hits = update_push_hits.load(std::memory_order_relaxed);
    s.update_demotions = update_demotions.load(std::memory_order_relaxed);
    s.update_pushes_stale = update_pushes_stale.load(std::memory_order_relaxed);
    s.lock_pushes_sent = lock_pushes_sent.load(std::memory_order_relaxed);
    s.lock_pages_pushed = lock_pages_pushed.load(std::memory_order_relaxed);
    s.lock_push_hits = lock_push_hits.load(std::memory_order_relaxed);
    s.lock_push_demotions = lock_push_demotions.load(std::memory_order_relaxed);
    s.diffs_created = diffs_created.load(std::memory_order_relaxed);
    s.diffs_applied = diffs_applied.load(std::memory_order_relaxed);
    s.diff_bytes_created = diff_bytes_created.load(std::memory_order_relaxed);
    s.twins_created = twins_created.load(std::memory_order_relaxed);
    s.invalidations = invalidations.load(std::memory_order_relaxed);
    s.gc_records_reclaimed = gc_records_reclaimed.load(std::memory_order_relaxed);
    s.gc_diff_bytes_reclaimed = gc_diff_bytes_reclaimed.load(std::memory_order_relaxed);
    s.gc_exchanges = gc_exchanges.load(std::memory_order_relaxed);
    s.relay_chunks_pruned = relay_chunks_pruned.load(std::memory_order_relaxed);
    s.relay_bytes_pruned = relay_bytes_pruned.load(std::memory_order_relaxed);
    s.relay_pages_scanned = relay_pages_scanned.load(std::memory_order_relaxed);
    s.lock_acquires = lock_acquires.load(std::memory_order_relaxed);
    s.lock_acquires_cached = lock_acquires_cached.load(std::memory_order_relaxed);
    s.barriers = barriers.load(std::memory_order_relaxed);
    s.barrier_msgs_sent = barrier_msgs_sent.load(std::memory_order_relaxed);
    s.barrier_msgs_recv = barrier_msgs_recv.load(std::memory_order_relaxed);
    s.sema_ops = sema_ops.load(std::memory_order_relaxed);
    s.cond_ops = cond_ops.load(std::memory_order_relaxed);
    s.flushes = flushes.load(std::memory_order_relaxed);
    s.ckpt_epochs = ckpt_epochs.load(std::memory_order_relaxed);
    s.ckpt_bytes_written = ckpt_bytes_written.load(std::memory_order_relaxed);
    s.ckpt_pages_incremental = ckpt_pages_incremental.load(std::memory_order_relaxed);
    s.recoveries = recoveries.load(std::memory_order_relaxed);
    s.rollback_epochs_lost = rollback_epochs_lost.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace now::tmk
