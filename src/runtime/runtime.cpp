#include "runtime/runtime.hpp"

#include <bit>
#include <mutex>

#include "common/check.hpp"

namespace pred {

namespace detail {
/// Bumped by every Runtime destruction; guards thread-local caches against
/// pointers into dead runtimes (see write_stage.hpp).
std::atomic<std::uint64_t> runtime_generation_counter{1};
}  // namespace detail

namespace {

thread_local WriteStage t_write_stage;

}  // namespace

WriteStage& thread_write_stage() { return t_write_stage; }

void flush_staged_writes() { t_write_stage.flush(); }

void WriteStage::flush() {
  const std::uint64_t gen = runtime_generation();
  for (StagedSlot& s : slots) {
    if (s.region != nullptr && s.count != 0 && s.gen == gen) {
      s.rt->apply_staged(*s.region, s.line, s.count);
    }
    s.rt = nullptr;
    s.region = nullptr;
    s.count = 0;
  }
  staged_since_epoch = 0;
}

Runtime::Runtime(RuntimeConfig config)
    : config_(config), virtual_lines_(config_.geometry) {
  PRED_CHECK(config_.tracking_threshold >= 1);
  PRED_CHECK(config_.prediction_threshold >= config_.tracking_threshold);
  PRED_CHECK(config_.sample_window >= 1);
  PRED_CHECK(config_.sample_interval >= config_.sample_window);
  PRED_CHECK(config_.geometry.line_size % config_.geometry.word_size == 0);
  for (auto& v : visible_) v.store(nullptr, std::memory_order_relaxed);
}

Runtime::~Runtime() {
  // Invalidate every thread-local pointer into this runtime (staged write
  // slots and the region cache). Threads discover the bump lazily and drop
  // stale entries instead of draining them.
  detail::runtime_generation_counter.fetch_add(1, std::memory_order_acq_rel);
}

ShadowSpace* Runtime::register_region(Address base, std::size_t size) {
  // Claim a slot with fetch_add so concurrent registrations cannot collide,
  // then publish the constructed region with a release store: from then on
  // every find_region scan sees it.
  const std::size_t slot = num_claimed_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRegions) {
    regions_dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  regions_[slot] = std::make_unique<ShadowSpace>(base, size, config_.geometry);
  ShadowSpace* region = regions_[slot].get();
  visible_[slot].store(region, std::memory_order_release);
  return region;
}

ShadowSpace* Runtime::find_region(Address addr) const {
  const FastPathCache& fc = t_fastpath_cache;
  const std::uint64_t gen = runtime_generation();
  if (fc.rt == this && fc.gen == gen && fc.region->contains(addr)) {
    return fc.region;
  }
  // A cache miss: scan the published slots in slot order. At most
  // kMaxRegions bounds checks, paid about once per thread and region.
  const std::size_t n = num_claimed_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n && i < kMaxRegions; ++i) {
    ShadowSpace* r = visible_[i].load(std::memory_order_acquire);
    if (r != nullptr && r->contains(addr)) {
      fill_fastpath_cache(*r, gen);
      return r;
    }
  }
  return nullptr;
}

void Runtime::fill_fastpath_cache(ShadowSpace& region,
                                  std::uint64_t gen) const {
  const std::size_t ls = config_.geometry.line_size;
  const std::size_t ws = config_.geometry.word_size;
  FastPathCache& fc = t_fastpath_cache;
  fc.rt = this;
  fc.region = &region;
  fc.trackers = region.trackers();
  fc.gen = gen;
  fc.region_begin = region.base();
  fc.region_bytes = std::has_single_bit(ls) && std::has_single_bit(ws)
                        ? region.end() - region.base()
                        : 0;
  fc.stage = &t_write_stage;
  fc.tracking_threshold = config_.tracking_threshold;
  fc.line_shift = static_cast<std::uint32_t>(std::countr_zero(ls));
  fc.word_shift = static_cast<std::uint32_t>(std::countr_zero(ws));
  fc.word_mask = ws - 1;
  fc.word_size = ws;
  fc.word_index_mask = ls / ws - 1;
  fc.tracked_read_exit = config_.instrument_mode != InstrumentMode::kWritesOnly;
}

bool Runtime::admit_tid(ThreadId tid) {
  if (tid <= PackedHistoryTable::kMaxThread) [[likely]] return true;
  wide_tid_accesses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

ThreadId Runtime::register_thread() {
  return next_thread_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::handle_access_slow(Address addr, AccessType type, ThreadId tid,
                                 std::size_t size) {
  if (config_.instrument_mode == InstrumentMode::kWritesOnly &&
      type == AccessType::kRead) {
    return;
  }
  ShadowSpace* region = find_region(addr);
  if (!region) return;

  const std::size_t ws = config_.geometry.word_size;
  const std::size_t first_word = addr / ws;
  const std::size_t last_word = (addr + (size ? size : 1) - 1) / ws;
  if (first_word == last_word) [[likely]] {
    handle_access_one_word(*region, addr, type, tid);
    return;
  }
  // Rare: an access spanning words (e.g. an unaligned 8-byte store) is split
  // so each touched word's histogram entry is updated.
  for (std::size_t w = first_word; w <= last_word; ++w) {
    Address piece = (w == first_word) ? addr : w * ws;
    if (region->contains(piece)) {
      handle_access_one_word(*region, piece, type, tid);
    }
  }
}

void Runtime::handle_access_one_word(ShadowSpace& region, Address addr,
                                     AccessType type, ThreadId tid) {
  const std::size_t idx = region.line_index(addr);
  if (CacheTracker* track = region.tracker(idx)) {
    const std::size_t word =
        (addr - region.line_start(idx)) / config_.geometry.word_size;
    handle_tracked(region, idx, word, track, track->find_stripe(), type, tid);
  } else if (type == AccessType::kWrite) {
    // Fast path of Figure 1: count writes only, no detailed tracking until
    // the line crosses TrackingThreshold.
    stage_write(region, idx);
  }
}

void Runtime::handle_tracked(ShadowSpace& region, std::size_t line,
                             std::size_t word, CacheTracker* track,
                             CacheTracker::Stripe* stripe, AccessType type,
                             ThreadId tid) {
  if (!admit_tid(tid)) return;  // too wide for the history table: counted

  // Sync-aware suppression applies only while no virtual line covers this
  // line: prediction verification (Section 3.4) is fed by sampled-access
  // fan-out, which suppressed accesses would starve.
  const bool suppress =
      config_.sync_suppression && !track->has_virtual_lines();
  const auto outcome =
      track->handle_word(word, type, tid, stripe, config_.sample_window,
                         config_.sample_interval,
                         suppress ? thread_epoch(tid) : 0);
  if (outcome.sampled) track->update_virtual_lines(word, type, tid);
  // Until the line's prediction decision is made the shared counter must
  // see every write, so the threshold check below reads an exact count;
  // from then on the write counts in the thread's stripe, no RMW.
  if (type == AccessType::kWrite && !track->count_write(stripe)) {
    const std::uint64_t w =
        region.writes(line).fetch_add(1, std::memory_order_relaxed) + 1;
    if (w >= config_.prediction_threshold && config_.prediction_enabled &&
        hook_ && track->try_begin_prediction()) {
      hook_(*this, region, line);
    }
  }
}

void Runtime::stage_write(ShadowSpace& region, std::size_t line_index) {
  WriteStage& st = t_write_stage;
  const std::uint64_t gen = runtime_generation();
  StagedSlot& s = st.slots[WriteStage::slot_index(&region, line_index)];
  if (s.region != &region || s.line != line_index || s.gen != gen)
      [[unlikely]] {
    // Evict the previous occupant (drain it unless its runtime died).
    if (s.region != nullptr && s.count != 0 && s.gen == gen) {
      s.rt->apply_staged(*s.region, s.line, s.count);
    }
    s.rt = this;
    s.region = &region;
    s.gen = gen;
    s.line = static_cast<std::uint32_t>(line_index);
    s.count = 0;
    s.base = region.writes_count(line_index);
  }
  ++s.count;
  if (++st.staged_since_epoch >= WriteStage::kEpochLength) [[unlikely]] {
    st.flush();
    return;
  }
  if (s.base + s.count >= config_.tracking_threshold) {
    // Same access as the unstaged path would escalate on (single-writer
    // streams): publish and run the threshold checks now.
    drain_slot(s);
  }
}

void Runtime::drain_slot(StagedSlot& s) {
  ShadowSpace* region = s.region;
  const std::uint32_t line = s.line;
  const std::uint32_t n = s.count;
  s.region = nullptr;
  s.count = 0;
  apply_staged(*region, line, n);
}

void Runtime::purge_staged(ShadowSpace& region, std::size_t line_index) {
  StagedSlot& s =
      t_write_stage.slots[WriteStage::slot_index(&region, line_index)];
  if (s.region != &region || s.line != line_index) return;
  // Publish without threshold checks: the line is being escalated right
  // now, and staged counts are < tracking_threshold above their base, so
  // they cannot cross prediction_threshold either (single-writer); a
  // multi-writer jump is caught by the tracked path's >= check.
  if (s.count != 0 && s.gen == runtime_generation()) {
    region.writes(line_index).fetch_add(s.count, std::memory_order_relaxed);
  }
  s.region = nullptr;
  s.count = 0;
}

void Runtime::apply_staged(ShadowSpace& region, std::size_t line_index,
                           std::uint64_t count) {
  const std::uint64_t prev =
      region.writes(line_index).fetch_add(count, std::memory_order_relaxed);
  const std::uint64_t now = prev + count;
  if (region.tracker(line_index) == nullptr &&
      now >= config_.tracking_threshold) {
    escalate(region, line_index);
  }
  // A drain can jump the counter across PredictionThreshold without any
  // tracked-path write observing the crossing; fire the hook here so the
  // Section 3.2 analysis is never skipped. try_begin_prediction keeps it
  // once-per-line.
  if (config_.prediction_enabled && hook_ &&
      prev < config_.prediction_threshold &&
      now >= config_.prediction_threshold) {
    if (CacheTracker* t = region.tracker(line_index);
        t != nullptr && t->try_begin_prediction()) {
      hook_(*this, region, line_index);
    }
  }
}

void Runtime::ensure_tracked_line(ShadowSpace& region,
                                  std::size_t line_index) {
  purge_staged(region, line_index);
  // Create the tracker disarmed: accesses racing this escalation are
  // counted but do not consume sampling-window positions (the seed burned
  // window slots on accesses that arrived mid-escalation). arm() below
  // opens the sampling clock once the bookkeeping is complete.
  CacheTracker* track = region.ensure_tracker(line_index, /*armed=*/false);
  // With prediction off there is no decision to wait for: tracked writes
  // count in stripes from the first one.
  if (!config_.prediction_enabled) track->settle_prediction();
  track->arm();
}

void Runtime::escalate(ShadowSpace& region, std::size_t line_index) {
  // Step 2 of the Section 3.2 workflow: once line L becomes interesting,
  // track word-level detail for L *and its adjacent lines*, since only
  // adjacent-line accesses can turn into false sharing under a different
  // placement or a larger line size. Each line's staged counts are purged
  // first so the fast path stops short-circuiting lines that now track.
  ensure_tracked_line(region, line_index);
  if (config_.prediction_enabled) {
    if (line_index > 0) {
      ensure_tracked_line(region, line_index - 1);
    }
    if (line_index + 1 < region.num_lines()) {
      ensure_tracked_line(region, line_index + 1);
    }
  }
}

void Runtime::handle_handoff(Address addr, std::size_t len, ThreadId tid) {
  handle_sync(tid);
  if (len == 0) return;
  ShadowSpace* region = find_region(addr);
  if (region == nullptr) return;
  const std::uint32_t epoch = thread_epoch(tid);
  const std::size_t first = region->line_index(addr);
  const Address last_addr = addr + len - 1;
  const std::size_t last = region->contains(last_addr)
                               ? region->line_index(last_addr)
                               : region->num_lines() - 1;
  // Claiming escalates: the claim stands in for the receiver's first write
  // to each line — which sync-scoped pruning may have dropped from the
  // instrumented stream — so the line must have a history automaton to
  // receive it. Left untracked, a pruned first write would make the next
  // cross-thread access look like the first ever and an invalidation would
  // be lost.
  for (std::size_t i = first; i <= last && i < region->num_lines(); ++i) {
    ensure_tracked_line(*region, i);
    if (admit_tid(tid)) region->tracker(i)->claim_for_handoff(tid, epoch);
  }
}

VirtualLineTracker* Runtime::add_virtual_line(ShadowSpace& region,
                                              Address start, std::size_t size,
                                              VirtualLineTracker::Kind kind,
                                              Address hot_x, Address hot_y) {
  // Coverage is registered as masks of whole words (covered_words), so the
  // range must start and end on word boundaries: the predictor word-aligns
  // its shifted placements, and double lines are line-aligned.
  const LineGeometry& geo = region.geometry();
  PRED_CHECK(start % geo.word_size == 0 && size % geo.word_size == 0);
  VirtualLineTracker* vl =
      virtual_lines_.add(start, size, kind, hot_x, hot_y);
  // Register coverage with every physical line the range overlaps, creating
  // trackers where needed so future accesses are seen at all.
  const std::size_t first = region.line_index(start);
  const std::size_t last = region.line_index(start + size - 1);
  for (std::size_t i = first; i <= last && i < region.num_lines(); ++i) {
    ensure_tracked_line(region, i);
    region.tracker(i)->add_virtual_line(
        *vl, vl->covered_words(region.line_start(i), geo));
  }
  return vl;
}

std::size_t Runtime::touched_metadata_bytes(
    std::size_t used_heap_bytes) const {
  const std::size_t lines_touched =
      used_heap_bytes / config_.geometry.line_size;
  std::size_t bytes = lines_touched * (sizeof(std::atomic<std::uint64_t>) +
                                       sizeof(std::atomic<CacheTracker*>));
  for_each_region([&](const ShadowSpace& region) {
    region.for_each_tracker([&](std::size_t, const CacheTracker* t) {
      bytes += t->metadata_bytes();
    });
  });
  return bytes + virtual_lines_.metadata_bytes();
}

std::size_t Runtime::metadata_bytes() const {
  std::size_t bytes = 0;
  for_each_region(
      [&](const ShadowSpace& region) { bytes += region.metadata_bytes(); });
  return bytes + virtual_lines_.metadata_bytes();
}

}  // namespace pred
