// The PREDATOR runtime: the component every instrumented access funnels into
// (Figure 1 of the paper). Owns the shadow spaces, the object registry, the
// callsite table, and — when prediction is enabled — the virtual cache lines
// nominated by the prediction engine.
//
// Hot-path layering (see docs/architecture.md):
//   1. inline fast path (handle_access below) — a single-word access inside
//      the region the thread last resolved retires without a call when it
//      is a write to a live staged line, a read of a line with no tracker,
//      or an unsampled access to an armed tracker; any other single-word
//      access to a tracked line goes straight to handle_tracked with the
//      line, word index (a shift and a mask) and stripe it already found;
//   2. region resolution (handle_access_slow: multi-word accesses, cache
//      misses, line or word sizes that are not powers of two) — find_region:
//      the same per-thread cache (FastPathCache), then on a miss a scan of
//      the at most kMaxRegions published region slots;
//   3. pre-threshold write counting — staged in thread-local slots
//      (runtime/write_stage.hpp) and drained in batches, so the common
//      case touches no shared cache line;
//   4. tracked path (handle_tracked, the one entry both paths share) —
//      lock-free: per-OS-thread striped sampling clocks, CAS-packed
//      history table, atomic word histogram, per-word virtual-line fan-out
//      tables (runtime/cache_tracker.hpp) onto history words packed by
//      anchor line, with per-token invalidation counts
//      (runtime/virtual_line.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "runtime/callsite.hpp"
#include "runtime/config.hpp"
#include "runtime/object_registry.hpp"
#include "runtime/shadow.hpp"
#include "runtime/write_stage.hpp"

namespace pred {

class Runtime {
 public:
  /// Upper bound on simultaneously tracked regions (the allocator heap plus
  /// a handful of global segments).
  static constexpr std::size_t kMaxRegions = 16;

  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- region management ---

  /// Starts tracking [base, base+size). Returns the region, which remains
  /// owned by the runtime. The base is rounded down to a line boundary.
  /// Thread-safe: concurrent callers claim distinct slots. Once all
  /// kMaxRegions slots are taken the range stays untracked: returns
  /// nullptr and counts the drop in regions_dropped().
  ShadowSpace* register_region(Address base, std::size_t size);

  /// Registrations refused because every region slot was taken.
  std::uint64_t regions_dropped() const {
    return regions_dropped_.load(std::memory_order_relaxed);
  }

  /// Tracked accesses that reach handle_tracked, and handoff claims,
  /// ignored because their thread id exceeds PackedHistoryTable::kMaxThread
  /// (30 bits): they never reach a history table. Unsampled accesses the
  /// inline fast path retires need no history and are counted as usual.
  std::uint64_t wide_tid_accesses() const {
    return wide_tid_accesses_.load(std::memory_order_relaxed);
  }

  /// Region containing `addr`, or nullptr when the address is untracked.
  /// The one region lookup: answers from the calling thread's FastPathCache
  /// when `addr` lies in the region it last resolved; otherwise returns the
  /// first published slot, in slot order, whose extent contains `addr`, and
  /// points the cache at it.
  ShadowSpace* find_region(Address addr) const;

  // --- the hot path (Figure 1) ---

  /// Records one memory access of `size` bytes issued by thread `tid`.
  /// Accesses that straddle a word boundary are split so the word histogram
  /// stays exact; accesses to untracked memory are ignored. Defined inline
  /// below: in the region the thread last resolved, single-word writes to a
  /// live staged line, reads of untracked lines and unsampled tracked
  /// accesses retire without leaving the caller, and every other
  /// single-word access to a tracked line makes one call, to the tracked
  /// path.
  void handle_access(Address addr, AccessType type, ThreadId tid,
                     std::size_t size = 8);

  /// Exactly `count` repetitions of handle_access. Deliberately a literal
  /// loop, not a counter shortcut: every per-access decision (staging,
  /// sampling clocks, escalation and prediction thresholds, history-table
  /// transitions) must match the unbatched execution bit for bit — that is
  /// the contract the instrumentation pruning passes' report-equivalence
  /// proof rests on. The savings batching buys live at the call site (one
  /// dispatch, one address computation), not here.
  void handle_access_n(Address addr, AccessType type, ThreadId tid,
                       std::size_t size, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      handle_access(addr, type, tid, size);
    }
  }

  // --- threads ---

  /// Hands out dense thread ids in registration order.
  ThreadId register_thread();
  std::uint32_t thread_count() const {
    return next_thread_.load(std::memory_order_relaxed);
  }

  // --- ownership handoff ---

  /// Ownership handoff: delivers a synthetic ownership claim
  /// (CacheTracker::claim_for_handoff) to every line overlapping
  /// [addr, addr+len), escalating untracked lines first. The claim stands
  /// in for the receiver's first write to the range when static
  /// sync-scoped pruning removed it, so no invalidation is lost.
  void handle_handoff(Address addr, std::size_t len, ThreadId tid);

  /// A stub that returns 0: threads have no sync epoch. perfbench still
  /// passes it to CacheTracker::handle_access; the next change to the
  /// benchmark removes it.
  std::uint32_t thread_epoch(ThreadId /*tid*/) const { return 0; }

  // --- prediction plumbing ---

  /// Callback invoked (once per line) when a line's write count crosses
  /// PredictionThreshold: step 3 of the Section 3.2 workflow. Installed by
  /// the prediction engine; the runtime stays ignorant of the analysis.
  using PredictionHook =
      std::function<void(Runtime&, ShadowSpace&, std::size_t line_index)>;
  void set_prediction_hook(PredictionHook hook) { hook_ = std::move(hook); }

  /// Nominates a virtual line in the runtime's VirtualLineStore and
  /// registers its coverage with every physical line it overlaps (so
  /// subsequent sampled accesses feed it). Returns its descriptor, which
  /// the store owns.
  VirtualLineTracker* add_virtual_line(ShadowSpace& region, Address start,
                                       std::size_t size,
                                       VirtualLineTracker::Kind kind,
                                       Address hot_x, Address hot_y);

  /// Every nominated virtual line (iterable, in nomination order). Iterate
  /// it only when no prediction hook can run concurrently; a walk during a
  /// run goes through for_each_virtual_line.
  const VirtualLineStore& virtual_lines() const { return virtual_lines_; }

  /// Invokes fn(const VirtualLineTracker&) for every virtual line nominated
  /// when the walk begins, in nomination order (VirtualLineStore::for_each).
  template <typename F>
  void for_each_virtual_line(F&& fn) const {
    virtual_lines_.for_each(std::forward<F>(fn));
  }

  // --- shared services ---

  ObjectRegistry& objects() { return objects_; }
  const ObjectRegistry& objects() const { return objects_; }
  CallsiteTable& callsites() { return callsites_; }
  const CallsiteTable& callsites() const { return callsites_; }
  const RuntimeConfig& config() const { return config_; }

  template <typename F>
  void for_each_region(F&& fn) const {
    const std::size_t n = num_claimed_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n && i < kMaxRegions; ++i) {
      if (const ShadowSpace* r = visible_[i].load(std::memory_order_acquire)) {
        fn(*r);
      }
    }
  }

  /// Total shadow/tracker/virtual-line metadata bytes (Figure 8/9 input).
  std::size_t metadata_bytes() const;

  /// Metadata bytes excluding untouched reservation: per-line shadow slots
  /// for `used_heap_bytes` of carved heap, plus live trackers and virtual
  /// lines. This mirrors the paper's proportional-set-size measurement,
  /// which only counts pages the run actually touched.
  std::size_t touched_metadata_bytes(std::size_t used_heap_bytes) const;

 private:
  friend class WriteStage;

  void escalate(ShadowSpace& region, std::size_t line_index);

  /// Purges the calling thread's staged counts for the line and gives it a
  /// CacheTracker. Shared by escalate(), handle_handoff() and
  /// add_virtual_line().
  void ensure_tracked_line(ShadowSpace& region, std::size_t line_index);

  void handle_access_slow(Address addr, AccessType type, ThreadId tid,
                          std::size_t size);
  /// Stages a write to an untracked line; hands a tracked line's access to
  /// handle_tracked.
  void handle_access_one_word(ShadowSpace& region, Address addr,
                              AccessType type, ThreadId tid);

  /// The tracked path: one access to word `word` of `line`, whose tracker
  /// is `track`. `stripe` is track->find_stripe() for the calling thread
  /// (nullptr: not registered yet). Runs the sampling decision, the
  /// virtual-line fan-out of a sampled access, and the write count with its
  /// prediction threshold.
  void handle_tracked(ShadowSpace& region, std::size_t line, std::size_t word,
                      CacheTracker* track, CacheTracker::Stripe* stripe,
                      AccessType type, ThreadId tid);

  /// Publishes and empties one staged slot (which just crossed
  /// TrackingThreshold on the fast path), running the threshold checks.
  void drain_slot(StagedSlot& s);

  /// Publishes (without threshold checks — a tracker is being created for
  /// the line right now) and empties any staged counts the calling thread
  /// holds for (region, line). Keeps the fast path honest when a line gains
  /// a tracker: its slot empties, so the next write misses and re-checks.
  void purge_staged(ShadowSpace& region, std::size_t line_index);

  /// Stages one pre-threshold write into the calling thread's WriteStage.
  void stage_write(ShadowSpace& region, std::size_t line_index);

  /// Publishes `count` staged writes for a line into the shared counter and
  /// runs the threshold checks (escalation, prediction hook) the individual
  /// increments skipped.
  void apply_staged(ShadowSpace& region, std::size_t line_index,
                    std::uint64_t count);

  /// True when `tid` fits the history table; otherwise counts the access in
  /// wide_tid_accesses() and returns false.
  bool admit_tid(ThreadId tid);

  /// Points the calling thread's FastPathCache at `region`.
  void fill_fastpath_cache(ShadowSpace& region, std::uint64_t gen) const;

  RuntimeConfig config_;

  std::unique_ptr<ShadowSpace> regions_[kMaxRegions];  // slot-claimed owners
  std::atomic<ShadowSpace*> visible_[kMaxRegions];     // published to readers
  std::atomic<std::size_t> num_claimed_{0};
  std::atomic<std::uint64_t> regions_dropped_{0};
  std::atomic<std::uint64_t> wide_tid_accesses_{0};

  std::atomic<ThreadId> next_thread_{0};

  ObjectRegistry objects_;
  CallsiteTable callsites_;

  VirtualLineStore virtual_lines_;

  PredictionHook hook_;
};

inline void Runtime::handle_access(Address addr, AccessType type, ThreadId tid,
                                   std::size_t size) {
  // Hot-region fast path: a single-word access inside the region the
  // calling thread last resolved. The generation compare rejects dead
  // runtimes, so no region lookup is needed here. A tracked access that
  // no exit retires — sampled, a write to a line whose prediction is
  // pending, or to a disarmed tracker — goes straight to handle_tracked.
  FastPathCache& fc = t_fastpath_cache;
  const Address off = addr - fc.region_begin;
  if (fc.rt == this && off < fc.region_bytes &&
      (addr & fc.word_mask) + size <= fc.word_size &&
      fc.gen == detail::runtime_generation_counter.load(
                    std::memory_order_acquire)) [[likely]] {
    const std::size_t line = off >> fc.line_shift;
    if (type == AccessType::kWrite) {
      // A write to a line whose staged slot is live: two thread-local
      // increments.
      StagedSlot& s =
          fc.stage->slots[WriteStage::slot_index(fc.region, line)];
      if (s.region == fc.region && s.line == line && s.gen == fc.gen)
          [[likely]] {
        ++s.count;
        if (++fc.stage->staged_since_flush >= WriteStage::kFlushPeriod)
            [[unlikely]] {
          fc.stage->flush();
          return;
        }
        if (s.base + s.count >= fc.tracking_threshold) [[unlikely]] {
          drain_slot(s);
        }
        return;
      }
    }
    CacheTracker* track = fc.trackers[line].load(std::memory_order_acquire);
    if (track == nullptr) {
      // A read of a line with no tracker: the slow path ignores it too.
      if (type == AccessType::kRead) return;
    } else if (type == AccessType::kWrite || fc.tracked_read_exit) {
      CacheTracker::Stripe* stripe = track->find_stripe();
      if (track->try_retire_unsampled(stripe, type, config_.sample_window,
                                      config_.sample_interval)) {
        return;  // outside the thread's sampling window: counted only
      }
      handle_tracked(*fc.region, line,
                     (off >> fc.word_shift) & fc.word_index_mask, track,
                     stripe, type, tid);
      return;
    }
  }
  handle_access_slow(addr, type, tid, size);
}

}  // namespace pred
