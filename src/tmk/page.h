// Per-node page table entries for the DSM protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "tmk/config.h"
#include "tmk/diff.h"
#include "tmk/intervals.h"

namespace now::tmk {

enum class PageState : std::uint8_t {
  kInvalid,   // PROT_NONE; access faults and runs the fetch protocol
  kReadOnly,  // PROT_READ; a write will fault and start a new twin
  kWritable,  // PROT_READ|PROT_WRITE with a twin capturing pre-write contents
};

// An interval of this node whose writes to the page are not yet fully
// materialized as a diff.  While `open`, the page may still be written (the
// twin tracks it); once the interval is closed at a release, the page is
// write-protected so the diff can be computed lazily but safely.
struct PendingTwin {
  std::uint32_t seq = 0;  // own interval the twin belongs to
  std::unique_ptr<std::uint8_t[]> data;
};

// A write notice this node has learned about but whose diff it has not yet
// applied to its copy of the page.
struct UnappliedNotice {
  std::uint32_t writer = 0;
  std::uint32_t seq = 0;
  std::uint64_t lamport = 0;
};

// The linear extension of happens-before in which diffs are applied: lamport
// order, writer id as the tie-break (ties are concurrent intervals whose
// diffs touch disjoint bytes in race-free programs).  Both the fault path
// and the barrier-GC eager-apply path sort by exactly this predicate — a
// divergence would change page bytes, so there is only one copy.
inline bool applies_before(const UnappliedNotice& a, const UnappliedNotice& b) {
  if (a.lamport != b.lamport) return a.lamport < b.lamport;
  return a.writer < b.writer;
}

// Requester-side cache of already-fetched diff chunks, keyed by (writer,
// seq).  A node that still holds a diff it fetched earlier can skip the
// re-request entirely (no message, no wire bytes) when a later fault wants
// the same interval again.  Two protocol paths feed it:
//  - barrier-time GC (insert_gc / pin_existing): the validation pass stores
//    the diffs for a page's remaining old write notices just before their
//    writers reclaim them.  Those entries are *pinned* — exempt from
//    eviction (it would lose the only surviving copy) — and are released
//    when applied, by the fault or by the GC pass itself once a page's
//    pinned bytes exceed the budget (which bounds never-read pages);
//  - multi-page prefetch on fault (budgeted FIFO insert): a fault folds
//    neighboring pages' wanted seqs into its kDiffRequest and parks the
//    extra chunks here for the neighbor's own fault.  Prefetched entries
//    are droppable — their writers still hold the diff, so the real fault
//    can always refetch what eviction lost.  When a barrier-GC floor later
//    covers a prefetched entry, the validation pass promotes it to a pin
//    in place rather than refetching;
//  - the adaptive update protocol (budgeted FIFO insert, pushed provenance):
//    a writer's barrier-time kUpdatePush parks the epoch's diffs here and
//    the reader's barrier departure applies any page whose wanted intervals
//    are fully covered, skipping the fault.  Keying by (writer, seq) is what
//    makes a push racing a pull-path fetch idempotent: whichever applies
//    first erases the entry, the other's copy is redundant bytes, never a
//    second application.
class PageDiffCache {
 public:
  // Mirrors every bytes_ change into a node-wide counter (a relaxed atomic
  // owned by the Node), so the on-demand GC's ceiling check can read the
  // cluster of per-page caches in O(1) instead of walking the page table on
  // every sync operation.  Bound once at Node construction.
  void bind_total(std::atomic<std::size_t>* total) { total_ = total; }

  struct Entry {
    std::vector<DiffBytes> chunks;
    bool pinned = false;      // exempt from FIFO eviction (barrier-GC)
    bool prefetched = false;  // arrived via multi-page prefetch (stats only)
    bool pushed = false;      // arrived via kUpdatePush (stats only)
    bool relayed = false;     // retained for the migratory lock relay
  };

  // Entry for (writer, seq), or nullptr if not cached.  The pointer stays
  // valid until the next insert().
  const Entry* lookup(std::uint32_t writer, std::uint32_t seq) const {
    auto it = map_.find(key(writer, seq));
    return it == map_.end() ? nullptr : &it->second;
  }
  // Chunks for (writer, seq), or nullptr if not cached.
  const std::vector<DiffBytes>* find(std::uint32_t writer, std::uint32_t seq) const {
    const Entry* e = lookup(writer, seq);
    return e == nullptr ? nullptr : &e->chunks;
  }

  // Stores the chunks for (writer, seq), evicting oldest unpinned entries to
  // stay within `budget_bytes`.  A chunk set larger than the whole budget is
  // not cached at all.  No-op if the key is already present.  Returns true
  // if the entry resides in the cache afterwards.
  bool insert(std::uint32_t writer, std::uint32_t seq,
              std::vector<DiffBytes> chunks, std::size_t budget_bytes,
              bool prefetched = false, bool pushed = false) {
    const std::uint64_t k = key(writer, seq);
    if (map_.count(k)) return true;
    std::size_t sz = 0;
    for (const DiffBytes& c : chunks) sz += c.size();
    if (sz > budget_bytes) return false;
    while (bytes_ + sz > budget_bytes && !order_.empty()) {
      auto victim = map_.find(order_.front());
      order_.pop_front();
      // A key may be stale (erased, or promoted to pinned since): skip it.
      if (victim == map_.end() || victim->second.pinned) continue;
      std::size_t vsz = 0;
      for (const DiffBytes& c : victim->second.chunks) vsz += c.size();
      sub_bytes(vsz);
      if (victim->second.relayed) relay_bytes_ -= vsz;
      map_.erase(victim);
    }
    // Pins alone may already exceed the budget (insert_gc bypasses it, the
    // GC pass rebalances at the next barrier): a droppable entry must not
    // land on top of that, or the cache would grow to pins + budget.
    if (bytes_ + sz > budget_bytes) return false;
    add_bytes(sz);
    order_.push_back(k);
    map_.emplace(k, Entry{std::move(chunks), /*pinned=*/false, prefetched, pushed});
    return true;
  }

  // Pins the chunks for (writer, seq) regardless of the byte budget and
  // immune to eviction: the barrier-GC pass stores diffs whose writer is
  // about to reclaim them, so evicting one before it is applied would lose
  // the only remaining copy.  An existing budgeted copy of the same key is
  // promoted to pinned in place (its FIFO key goes stale), so a pin can
  // never be evicted no matter how the entry first arrived.
  void insert_gc(std::uint32_t writer, std::uint32_t seq,
                 std::vector<DiffBytes> chunks) {
    if (pin_existing(writer, seq)) return;  // same key => same chunk content
    std::size_t sz = 0;
    for (const DiffBytes& c : chunks) sz += c.size();
    add_bytes(sz);
    pinned_bytes_ += sz;
    // Deliberately not queued in order_, so the eviction loop never sees it.
    map_.emplace(key(writer, seq), Entry{std::move(chunks), /*pinned=*/true,
                                         /*prefetched=*/false, /*pushed=*/false});
  }

  // Promotes an already-held entry to pinned (no-op on pins).  The GC
  // validation pass uses this when the floor covers an entry a prefetch
  // already fetched: the chunks are identical, only the eviction class
  // changes — after the writer reclaims, eviction would lose the only copy.
  // Returns false if the key is absent.
  bool pin_existing(std::uint32_t writer, std::uint32_t seq) {
    auto it = map_.find(key(writer, seq));
    if (it == map_.end()) return false;
    if (!it->second.pinned) {
      it->second.pinned = true;  // its FIFO key goes stale
      for (const DiffBytes& c : it->second.chunks) pinned_bytes_ += c.size();
    }
    return true;
  }

  // Drops the entry for (writer, seq) if present (a stale key may linger in
  // the FIFO order; the eviction loop tolerates that).  Used to release an
  // entry once its chunks have been applied — an applied interval is never
  // wanted again.
  void erase(std::uint32_t writer, std::uint32_t seq) {
    auto it = map_.find(key(writer, seq));
    if (it == map_.end()) return;
    std::size_t sz = 0;
    for (const DiffBytes& c : it->second.chunks) sz += c.size();
    sub_bytes(sz);
    if (it->second.pinned) pinned_bytes_ -= sz;
    if (it->second.relayed) relay_bytes_ -= sz;
    map_.erase(it);
  }

  // Marks an already-held entry as retained for the migratory lock relay
  // (provenance + byte accounting; no eviction-class change — relay
  // retention is droppable by contract, its writer still holds the diff).
  void mark_relay(std::uint32_t writer, std::uint32_t seq) {
    auto it = map_.find(key(writer, seq));
    if (it == map_.end() || it->second.relayed) return;
    it->second.relayed = true;
    for (const DiffBytes& c : it->second.chunks) relay_bytes_ += c.size();
  }

  // Drops every unpinned entry whose interval the floor covers: validation
  // resolved all notices at or below the floor, and grant-chain deltas are
  // cut above it, so a covered droppable chunk can never serve a fault nor
  // be relayed again — keeping it would be the FIFO-forever leak.  Pins are
  // exempt (they are the *only* copy until applied).  Returns the number of
  // entries dropped and adds their bytes to *bytes_pruned.
  std::size_t prune_below(const VectorTime& floor, std::size_t* bytes_pruned) {
    std::size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      const std::uint32_t writer = static_cast<std::uint32_t>(it->first >> 32);
      const std::uint32_t seq = static_cast<std::uint32_t>(it->first);
      if (it->second.pinned || writer >= floor.size() || seq > floor[writer]) {
        ++it;
        continue;
      }
      std::size_t sz = 0;
      for (const DiffBytes& c : it->second.chunks) sz += c.size();
      sub_bytes(sz);
      if (it->second.relayed) relay_bytes_ -= sz;
      if (bytes_pruned != nullptr) *bytes_pruned += sz;
      ++dropped;
      it = map_.erase(it);  // its FIFO key goes stale; eviction tolerates it
    }
    return dropped;
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t pinned_bytes() const { return pinned_bytes_; }
  std::size_t relay_bytes() const { return relay_bytes_; }
  std::size_t entries() const { return map_.size(); }

 private:
  static std::uint64_t key(std::uint32_t writer, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(writer) << 32) | seq;
  }
  void add_bytes(std::size_t n) {
    bytes_ += n;
    if (total_ != nullptr) total_->fetch_add(n, std::memory_order_relaxed);
  }
  void sub_bytes(std::size_t n) {
    bytes_ -= n;
    if (total_ != nullptr) total_->fetch_sub(n, std::memory_order_relaxed);
  }
  std::unordered_map<std::uint64_t, Entry> map_;
  std::deque<std::uint64_t> order_;  // insertion order, for FIFO eviction
  std::size_t bytes_ = 0;
  std::size_t pinned_bytes_ = 0;  // subset of bytes_ held by pinned entries
  std::size_t relay_bytes_ = 0;   // subset of bytes_ retained for the relay
  std::atomic<std::size_t>* total_ = nullptr;  // node-wide mirror of bytes_
};

struct PageEntry {
  // Serializes page-state transitions between the node's compute thread
  // (faults, invalidations) and its service thread (diff materialization).
  std::mutex mu;

  PageState state = PageState::kInvalid;
  bool ever_valid = false;  // false => local copy is the initial zero page

  // Twin for the currently writable / pending interval (at most one; older
  // intervals' diffs are already materialized in the diff store).
  PendingTwin twin;
  bool twin_valid = false;

  // Write notices to apply at the next fault, sorted on use by lamport.
  std::vector<UnappliedNotice> unapplied;

  // Diff chunks this node has already fetched for the page (guarded by mu).
  PageDiffCache diff_cache;

  // ---- adaptive update protocol, reader side (guarded by mu) ----
  // Armed: every wanted diff has been applied and the contents are current,
  // but the page is deliberately left unmapped so the next access faults
  // once, locally — the liveness probe of the update protocol.  The probe
  // fault sets `push_touched`; an armed page still untouched when the next
  // barrier's demotion scan runs is evidence the reader stopped using the
  // data, and demotes it at the writers.
  bool push_armed = false;
  // Any fault on the page since the last barrier's demotion scan (cheap
  // proxy for "the reader still uses this data"; reads of a valid page are
  // invisible, which is exactly what the armed probe exists to sample).
  bool push_touched = false;
  // Writers whose pushes landed since the last demotion scan (bitmask by
  // node id; kUpdateDeny targets).
  std::uint64_t pushed_by = 0;
  // Pushes applied to this page since promotion; schedules the armed probes
  // (every update_reprobe_epochs-th push — the ones in between validate
  // outright).  Reset on demotion.
  std::uint32_t pushes_since_probe = 0;

  // ---- migratory lock push, holder side (guarded by mu) ----
  // Armed by a lock-grant push: contents current, page deliberately left
  // unmapped so the next access faults once, locally — the probe proving
  // this holder still touches the lock's protected pages.  Judged at this
  // node's release of the pushing lock (Node::lock_push_judge): still armed
  // there means the whole critical section ran without touching the page,
  // and the pusher is denied.
  bool lock_push_armed = false;
  // Listed in Node::relay_pages_ (compute thread only, like that list):
  // keeps the list at one entry per page between floor rises.
  bool relay_listed = false;
};

}  // namespace now::tmk
