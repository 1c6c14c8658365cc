// Thread-local write staging (the redesigned hot-path back end).
//
// The seed runtime paid a shared `fetch_add` on the per-line write counter
// for every pre-threshold write — an atomic RMW whose cache line is shared
// with seven neighboring counters, so the detector itself suffered the very
// false sharing it hunts. This stage turns pre-threshold write counting
// into a plain thread-local increment: each OS thread owns a small
// direct-mapped block of (region, line) -> count slots, and staged counts
// drain into the shared counters in batches.
//
// Exactness contract: escalation at TrackingThreshold happens on exactly
// the same access as publishing every write at once would (the reference
// side of tests/test_fastpath.cpp does that) whenever a line's
// pre-threshold writes come from one thread at a time (every deterministic
// test, every replay, and the common monotone live stream). Each staged
// increment checks `base + count >= threshold`, where `base` is the shared
// counter value snapshotted when the slot was filled; crossing drains the
// slot and escalates immediately. With concurrent pre-threshold writers the
// sum can cross the threshold before any single thread's view does; the
// periodic flush (every kFlushPeriod staged writes per thread) bounds that
// delay, and the drain itself re-checks both thresholds.
//
// Drain points: slot eviction (direct-mapped collision), inline threshold
// crossing, the per-thread periodic flush, `Session::flush()` / `ScopedThread`
// unbind / `BatchBuffer::flush`, `build_report`, and thread exit.
//
// Lifetime safety: slots reference runtimes/regions by raw pointer. A
// global generation counter is bumped whenever any Runtime is destroyed;
// slots tagged with an older generation are discarded instead of drained,
// so a deferred drain can never touch a dead runtime's shadow memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/cacheline.hpp"

namespace pred {

class CacheTracker;
class Runtime;
class ShadowSpace;

namespace detail {
/// Global runtime generation counter; read inline on the hot path, written
/// only by Runtime destruction.
extern std::atomic<std::uint64_t> runtime_generation_counter;
}  // namespace detail

/// Current global runtime generation. Bumped by every Runtime destruction;
/// staged slots and region-cache entries from older generations are stale.
inline std::uint64_t runtime_generation() {
  return detail::runtime_generation_counter.load(std::memory_order_acquire);
}

/// Drains every staged write counter held by the calling thread into the
/// owning runtimes' shared counters (running threshold checks). Safe to
/// call at any time; stale-generation slots are dropped.
void flush_staged_writes();

struct StagedSlot {
  Runtime* rt = nullptr;
  ShadowSpace* region = nullptr;  ///< nullptr marks an empty slot
  std::uint64_t gen = 0;
  std::uint64_t base = 0;  ///< shared counter value when the slot was filled
  std::uint32_t line = 0;
  std::uint32_t count = 0;  ///< staged (not yet published) writes
};

/// Per-OS-thread staging block. One instance lives in thread-local storage;
/// the runtime reaches it through `thread_write_stage()`.
class WriteStage {
 public:
  static constexpr std::size_t kSlots = 64;  // direct-mapped
  /// Staged writes between full drains, bounding both the staleness of
  /// shared counters and multi-writer escalation lag.
  static constexpr std::uint32_t kFlushPeriod = 4096;

  ~WriteStage() { flush(); }

  /// Drains all valid slots and restarts the flush period.
  void flush();

  static std::size_t slot_index(const ShadowSpace* region, std::size_t line) {
    return (line ^ (reinterpret_cast<std::uintptr_t>(region) >> 6)) &
           (kSlots - 1);
  }

  StagedSlot slots[kSlots];
  std::uint32_t staged_since_flush = 0;
};

/// The calling thread's staging block.
WriteStage& thread_write_stage();

/// One-entry per-thread region cache: the region the calling thread last
/// resolved. Runtime::find_region fills it on every miss and answers from
/// it on a hit; the inline fast path in Runtime::handle_access reads it to
/// retire three kinds of single-word access without a call:
///   - a write to a line whose staged slot is live — a slot occupied by
///     (region, line, gen) proves the line had no tracker when staged, and
///     every same-thread event that could give the line a tracker
///     (escalation, virtual-line fan-out) purges the slot first;
///   - a read of a line whose CacheTracking entry is null;
///   - an unsampled access to an armed tracker
///     (CacheTracker::try_retire_unsampled);
/// and to hand every other single-word access to a tracked line straight
/// to Runtime::handle_tracked with its line, word index and stripe.
/// Region and tracker pointers stay valid while their runtime lives
/// (regions are never unregistered, trackers never freed), and only runtime
/// destruction (generation bump) wholesale-invalidates the cache.
struct FastPathCache {
  const Runtime* rt = nullptr;  ///< nullptr = invalid
  ShadowSpace* region = nullptr;
  const std::atomic<CacheTracker*>* trackers = nullptr;  ///< per line
  std::uint64_t gen = 0;
  Address region_begin = 0;
  /// Tracked bytes from region_begin; 0 (no inline exit) unless the line
  /// and word sizes are powers of two — the exits replace divisions with a
  /// shift and a mask.
  std::size_t region_bytes = 0;
  WriteStage* stage = nullptr;
  std::uint64_t tracking_threshold = 0;
  std::uint32_t line_shift = 0;  ///< log2(line_size)
  std::uint32_t word_shift = 0;  ///< log2(word_size)
  std::size_t word_mask = 0;     ///< word_size - 1
  std::size_t word_size = 0;
  std::size_t word_index_mask = 0;  ///< words_per_line - 1
  /// Tracked reads may retire inline: off in writes-only mode, where the
  /// slow path drops reads instead of counting them.
  bool tracked_read_exit = false;

  /// The calling thread's staged slot for `line` of the cached region when
  /// it is live (occupied by this region, line and generation), else
  /// nullptr.
  StagedSlot* live_slot(std::size_t line) const {
    StagedSlot& s = stage->slots[WriteStage::slot_index(region, line)];
    return s.region == region && s.line == line && s.gen == gen ? &s
                                                                : nullptr;
  }
};

inline thread_local FastPathCache t_fastpath_cache;

}  // namespace pred
