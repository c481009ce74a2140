// Node lifecycle, consistency engine (intervals, merge/invalidate,
// twin materialization) and messaging helpers.
#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

Node::Node(DsmRuntime& rt, std::uint32_t id)
    : rt_(rt),
      id_(id),
      num_nodes_(rt.config().num_nodes),
      pages_(rt.config().num_pages()),
      log_(num_nodes_),
      sent_node_vt_(num_nodes_, VectorTime(num_nodes_, 0)),
      sent_mgr_vt_(num_nodes_, VectorTime(num_nodes_, 0)),
      delta_send_mu_(new std::mutex[num_nodes_]),
      gc_floor_applied_(num_nodes_, 0),
      gc_floor_validated_(num_nodes_, 0),
      mgr_(num_nodes_),
      tree_sent_up_vt_(num_nodes_, 0),
      stress_rng_(rt.config().stress_seed + id) {
  for (PageEntry& e : pages_) e.diff_cache.bind_total(&diff_cache_total_bytes_);
}

Node::~Node() = default;

void Node::start_service() {
  service_thread_ = std::thread([this] { service_main(); });
}

void Node::join_service() {
  if (service_thread_.joinable()) service_thread_.join();
}

void Node::bind_compute_thread() {
  detail::region_base() = rt_.arena().region_base(id_);
  cpu_meter_.rebase();
}

void Node::sync_cpu() {
  clock_.advance_ns(rt_.config().time.scale_ns(cpu_meter_.take_delta_ns()));
}

// ---------------------------------------------------------------------------
// Consistency engine
// ---------------------------------------------------------------------------

void Node::close_interval() {
  if (dirty_pages_.empty()) return;

  std::sort(dirty_pages_.begin(), dirty_pages_.end());
  dirty_pages_.erase(std::unique(dirty_pages_.begin(), dirty_pages_.end()),
                     dirty_pages_.end());

  IntervalRecord rec;
  rec.node = id_;
  rec.pages = dirty_pages_;
  std::uint32_t rec_seq;
  const std::size_t rec_npages = rec.pages.size();
  const PageIndex rec_first = rec.pages.empty() ? 0 : rec.pages[0];
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    own_lamport_ = std::max(own_lamport_, log_.max_lamport()) + 1;
    rec.seq = rec_seq = ++own_seq_;
    rec.lamport = own_lamport_;
    log_.append_own(std::move(rec));
  }

  // The barrier push pass wants this epoch's intervals by dirty page.
  if (rt_.config().update_enabled())
    for (PageIndex page : dirty_pages_) epoch_dirty_[page].push_back(rec_seq);

  // Write-protect the interval's dirty pages so later writes fault and
  // materialize this interval's diff before starting a new twin.
  for (PageIndex page : dirty_pages_) {
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.state == PageState::kWritable) {
      rt_.arena().protect_read(id_, page);
      e.state = PageState::kReadOnly;
    }
    // kInvalid: the page was invalidated mid-interval; its partial diff is
    // already in the store under this interval's seq.
  }
  dirty_pages_.clear();
  // Interval bookkeeping (mprotect syscalls) is protocol work, not app
  // compute; close_interval only ever runs on the compute thread.
  cpu_meter_.rebase();
  NOW_LOG(kDebug, "node %u closed interval %u (%zu pages, first=%u)", id_,
          rec_seq, rec_npages, rec_first);
}

void Node::merge_and_invalidate(const std::vector<IntervalRecordPtr>& recs) {
  std::vector<IntervalRecordPtr> fresh;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    fresh = log_.merge(recs);
  }
  for (const IntervalRecordPtr& recp : fresh) {
    const IntervalRecord& rec = *recp;
    NOW_CHECK_NE(rec.node, id_) << "merged a record we authored";
    for (PageIndex page : rec.pages) {
      PageEntry& e = pages_[page];
      std::lock_guard<std::mutex> lock(e.mu);
      e.unapplied.push_back({rec.node, rec.seq, rec.lamport});
      if (e.state != PageState::kInvalid) invalidate_page(page, e);
      // An armed page is already kInvalid; a fresh notice still stales its
      // applied-and-current contents.
      e.push_armed = false;
      e.lock_push_armed = false;
    }
  }
  // Seed the GC validation scan with the pages that just gained notices
  // (consumed whenever a floor is applied: barriers and fork points).
  if (!fresh.empty() && rt_.config().gc_floors_enabled()) {
    std::lock_guard<std::mutex> lock(gc_scan_mu_);
    for (const IntervalRecordPtr& recp : fresh)
      gc_scan_pages_.insert(gc_scan_pages_.end(), recp->pages.begin(),
                            recp->pages.end());
  }
  // Invalidation mprotects are protocol work, not application compute; when
  // running on the compute thread, keep them out of the meter.  (The service
  // thread also merges — flush/fork/join — but never owns the meter.)
  if (detail::region_base() == rt_.arena().region_base(id_)) cpu_meter_.rebase();
}

void Node::invalidate_page(PageIndex page, PageEntry& e) {
  NOW_CHECK(e.state != PageState::kInvalid);
  materialize_twin(page, e);  // no-op without a twin
  rt_.arena().protect_none(id_, page);
  e.state = PageState::kInvalid;
  e.push_armed = false;  // armed contents are no longer current
  e.lock_push_armed = false;
  stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
}

void Node::materialize_twin(PageIndex page, PageEntry& e) {
  if (!e.twin_valid) return;
  NOW_CHECK(e.state != PageState::kInvalid) << "twin on an invalid page";
  const std::uint8_t* current = rt_.arena().page_ptr(id_, page);
  // Scan into a per-thread scratch buffer (both the compute and the service
  // thread materialize twins), then store an exactly-sized copy: the scratch
  // absorbs the grow-reallocations, the store never over-holds.
  thread_local DiffBytes scratch;
  scratch.clear();
  diff_append(scratch, e.twin.data.get(), current, kPageSize);
  DiffBytes diff(scratch.begin(), scratch.end());
  const auto& cfg = rt_.config();
  clock_.advance_us(cfg.diff_create_base_us +
                    cfg.diff_create_per_kb_us *
                        (static_cast<double>(diff.size()) / 1024.0));
  stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
  stats_.diff_bytes_created.fetch_add(diff.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    diff_store_bytes_.fetch_add(
        diff_store_[diff_store_key(page, e.twin.seq)].emplace_back(std::move(diff)).size(),
        std::memory_order_relaxed);
  }
  e.twin_valid = false;
  e.twin.data.reset();
}

VectorTime Node::gc_floor_snapshot() {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return gc_floor_applied_;
}

Node::MetaFootprint Node::meta_footprint() {
  MetaFootprint f;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    f.log_records = log_.total_records();
    f.log_bytes = log_.total_bytes();
  }
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    f.diff_store_entries = diff_store_.size();
    for (const auto& [key, chunks] : diff_store_)
      for (const DiffBytes& d : chunks) f.diff_store_bytes += d.size();
  }
  for (PageEntry& e : pages_) {
    std::lock_guard<std::mutex> lock(e.mu);
    f.diff_cache_bytes += e.diff_cache.bytes();
    f.diff_cache_pinned_bytes += e.diff_cache.pinned_bytes();
    f.relay_bytes += e.diff_cache.relay_bytes();
  }
  f.relay_pages = relay_pages_.size();
  return f;
}

std::size_t Node::meta_bytes() {
  std::size_t total = diff_store_bytes_.load(std::memory_order_relaxed) +
                      diff_cache_total_bytes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(meta_mu_);
  return total + log_.total_bytes();
}

// ---------------------------------------------------------------------------
// Messaging helpers
// ---------------------------------------------------------------------------

std::map<Node::DiffKey, std::vector<Node::DiffChunkView>> Node::fetch_diffs(
    const std::vector<DiffWant>& wants, std::vector<sim::Message>& replies,
    bool for_gc) {
  // One kDiffRequest per *writer*, carrying every page wanted from it:
  // a fault and its prefetch window share one round trip, and the GC
  // validation pass batches a whole barrier's worth of pages per writer.
  std::map<std::uint32_t, std::vector<const DiffWant*>> by_writer;
  for (const DiffWant& want : wants) {
    NOW_CHECK_NE(want.writer, id_) << "unapplied notice for our own interval";
    by_writer[want.writer].push_back(&want);
  }

  // Copyset tag: the requester's 0-based epoch (barriers completed).  The
  // writer folds an epoch's readers only after its own departure from the
  // barrier that ended it, by which point every fault-path request of that
  // epoch has been served (the requester could not have arrived otherwise).
  // GC-validation fetches are flagged instead of recorded: fetching an old
  // diff at a barrier is evidence the reader did NOT touch the page.
  const std::uint32_t epoch_tag = static_cast<std::uint32_t>(
      stats_.barriers.load(std::memory_order_relaxed));

  // All requests go out before any wait (TreadMarks pipelines these to hide
  // latency).
  struct Call {
    std::uint64_t tok = 0;
    std::uint32_t writer = 0;
    std::vector<PageIndex> pages;  // request order; the reply must echo it
  };
  std::vector<Call> calls;
  calls.reserve(by_writer.size());
  for (const auto& [writer, writer_wants] : by_writer) {
    ByteWriter w;
    w.u32(epoch_tag);
    w.u8(for_gc ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(writer_wants.size()));
    std::vector<PageIndex> pages;
    pages.reserve(writer_wants.size());
    for (const DiffWant* want : writer_wants) {
      w.u32(want->page);
      w.u32(static_cast<std::uint32_t>(want->seqs.size()));
      for (std::uint32_t s : want->seqs) w.u32(s);
      pages.push_back(want->page);
    }
    const std::uint64_t tok = rpc_.begin();
    sim::Message m;
    m.type = kDiffRequest;
    m.dst = writer;
    m.seq = tok;
    m.payload = w.take();
    send_compute(std::move(m));
    calls.push_back({tok, writer, std::move(pages)});
  }
  stats_.diff_fetches.fetch_add(calls.size(), std::memory_order_relaxed);

  // The chunk views point into the reply payloads (zero-copy: the only copy
  // left to the caller is whatever it does with the chunks).  The payload
  // heap buffers are stable even if `replies` reallocates.
  std::map<DiffKey, std::vector<DiffChunkView>> got;
  replies.reserve(replies.size() + calls.size());
  for (const Call& c : calls) {
    replies.push_back(rpc_.wait(c.tok));
    const sim::Message& reply = replies.back();
    arrive(reply);
    ByteReader r(reply.payload);
    const std::uint32_t npages = r.u32();
    NOW_CHECK_EQ(npages, c.pages.size());
    for (std::uint32_t p = 0; p < npages; ++p) {
      const PageIndex rpage = r.u32();
      // The reply echoes the requested pages in order; a mislabeled page
      // would silently file chunks under the wrong cache, so fail fast.
      NOW_CHECK_EQ(rpage, c.pages[p]);
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t seq = r.u32();
        const std::uint32_t nchunks = r.u32();
        auto& chunks = got[{rpage, c.writer, seq}];
        for (std::uint32_t k = 0; k < nchunks; ++k) chunks.push_back(r.bytes_view());
      }
    }
  }
  return got;
}

std::vector<IntervalRecordPtr> Node::take_delta_for(std::uint32_t peer, Cache which,
                                                    const VectorTime* extra) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  VectorTime& cache =
      (which == Cache::kNodeLog ? sent_node_vt_ : sent_mgr_vt_)[peer];
  VectorTime base = extra ? vt_max(cache, *extra) : cache;
  std::vector<IntervalRecordPtr> delta = log_.delta_since(base);
  if (log_enabled(LogLevel::kDebug)) {
    NOW_LOG(kDebug,
            "node %u: take_delta(peer=%u, %s): cache=[%u,%u] extra=[%u,%u] log=[%u,%u] -> %zu recs",
            id_, peer, which == Cache::kNodeLog ? "node" : "mgr",
            cache.empty() ? 0 : cache[0], cache.size() > 1 ? cache[1] : 0,
            extra && !extra->empty() ? (*extra)[0] : 0,
            extra && extra->size() > 1 ? (*extra)[1] : 0,
            log_.seq_of(0), num_nodes_ > 1 ? log_.seq_of(1) : 0, delta.size());
  }
  cache = log_.vt();
  return delta;
}

void Node::send_compute(sim::Message&& m) {
  clock_.advance_us(rt_.config().net.send_overhead_us);
  m.src = id_;
  m.send_ts_ns = clock_.now_ns();
  rt_.net().send(std::move(m));
}

void Node::send_service(sim::Message&& m, std::uint64_t base_ts) {
  // Service replies depart after the modeled interrupt-service time; the
  // interrupt also steals CPU from whatever the host node was computing.
  const std::uint64_t overhead =
      static_cast<std::uint64_t>(rt_.config().net.service_overhead_us * 1000.0);
  m.src = id_;
  m.send_ts_ns = base_ts + overhead;
  rt_.net().send(std::move(m));
}

void Node::arrive(const sim::Message& m) {
  clock_.advance_to_ns(m.arrive_ts_ns);
  clock_.advance_us(rt_.config().net.recv_overhead_us);
  cpu_meter_.rebase();
}

sim::Message Node::rpc_call(std::uint32_t dst, std::uint16_t type,
                            std::vector<std::uint8_t> payload) {
  const std::uint64_t tok = rpc_.begin();
  sim::Message m;
  m.type = type;
  m.dst = dst;
  m.seq = tok;
  m.payload = std::move(payload);
  send_compute(std::move(m));
  sim::Message reply = rpc_.wait(tok);
  arrive(reply);
  return reply;
}

}  // namespace now::tmk
