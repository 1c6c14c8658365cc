// Shadow memory for one tracked region (Section 2.3.2, "Optimizing Metadata
// Lookup"): metadata for an address is found by pure address arithmetic.
// Two side arrays exist per region, exactly as in the paper's Section 2.4.1:
//   CacheWrites   — per-line shared write counters driving TrackingThreshold
//                   and PredictionThreshold; once a tracked line's
//                   prediction decision is made, its further writes count
//                   in the tracker's per-thread stripes instead, and
//                   writes_count() adds the two,
//   CacheTracking — per-line pointers to lazily allocated CacheTrackers.
// Both arrays are demand-zero mappings (common/anon_mapping.hpp): a line's
// slots start as the kernel's zero page, the initial value of a counter and
// of an absent tracker, so the arrays take resident memory only for the
// pages of lines the program touches.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/anon_mapping.hpp"
#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/spinlock.hpp"
#include "runtime/cache_tracker.hpp"

namespace pred {

class ShadowSpace {
 public:
  ShadowSpace(Address base, std::size_t size, const LineGeometry& geometry)
      : base_(geometry.line_base(base)),
        geometry_(geometry),
        num_lines_((base + size - base_ + geometry.line_size - 1) /
                   geometry.line_size),
        writes_map_(num_lines_ * sizeof(std::atomic<std::uint64_t>)),
        tracking_map_(num_lines_ * sizeof(std::atomic<CacheTracker*>)),
        writes_(static_cast<std::atomic<std::uint64_t>*>(writes_map_.data())),
        tracking_(
            static_cast<std::atomic<CacheTracker*>*>(tracking_map_.data())) {
    PRED_CHECK(size > 0);
  }

  ShadowSpace(const ShadowSpace&) = delete;
  ShadowSpace& operator=(const ShadowSpace&) = delete;

  bool contains(Address a) const { return a >= base_ && a < end(); }

  std::size_t line_index(Address a) const {
    return (a - base_) / geometry_.line_size;
  }
  Address line_start(std::size_t idx) const {
    return base_ + idx * geometry_.line_size;
  }
  std::size_t num_lines() const { return num_lines_; }
  Address base() const { return base_; }
  /// One past the last tracked byte (the region is whole lines).
  Address end() const { return base_ + num_lines_ * geometry_.line_size; }
  const LineGeometry& geometry() const { return geometry_; }

  /// The shared counter: every pre-tracker write and every tracked write
  /// before the line's prediction decision.
  std::atomic<std::uint64_t>& writes(std::size_t idx) { return writes_[idx]; }
  /// Every write the line has seen: the shared counter plus the writes its
  /// tracker counted in stripes. Exact once writers have quiesced and
  /// drained their staged counts.
  std::uint64_t writes_count(std::size_t idx) const {
    std::uint64_t n = writes_[idx].load(std::memory_order_relaxed);
    if (const CacheTracker* t = tracker(idx)) n += t->stripe_writes();
    return n;
  }

  CacheTracker* tracker(std::size_t idx) const {
    return tracking_[idx].load(std::memory_order_acquire);
  }
  /// The CacheTracking array itself, indexed by line (the inline fast path
  /// caches it per thread).
  const std::atomic<CacheTracker*>* trackers() const { return tracking_; }

  /// Allocates (or returns the existing) tracker for a line: the
  /// allocCacheTrack step of Figure 1. The tracker is published into its
  /// CacheTracking slot and into the arena under one lock (the paper's
  /// ATOMIC_CAS race is decided there), so for_each_tracker never misses a
  /// tracker an access can already reach. `armed = false` creates the
  /// tracker with its sampling clock gated; the caller arms it once
  /// escalation bookkeeping completes (Runtime::ensure_tracked_line).
  CacheTracker* ensure_tracker(std::size_t idx, bool armed = true) {
    if (CacheTracker* existing = tracker(idx)) return existing;
    auto fresh = std::make_unique<CacheTracker>(idx, geometry_, armed);
    std::lock_guard<Spinlock> g(arena_lock_);
    if (CacheTracker* existing =
            tracking_[idx].load(std::memory_order_relaxed)) {
      return existing;  // another thread won the race; ours is freed here
    }
    CacheTracker* raw = fresh.get();
    arena_.push_back(std::move(fresh));
    tracking_[idx].store(raw, std::memory_order_release);
    return raw;
  }

  /// Invokes fn(line_index, tracker) for every line escalated when the
  /// walk begins, in ascending line order. Walks the arena, not the
  /// CacheTracking array, so the cost is per tracker however large the
  /// region is, and no untouched shadow page gets mapped. Each tracker's
  /// line is read once, under the arena lock, and the sort reads only the
  /// captured pairs; fn runs outside the lock.
  template <typename F>
  void for_each_tracker(F&& fn) const {
    std::vector<std::pair<std::size_t, CacheTracker*>> escalated;
    {
      std::lock_guard<Spinlock> g(arena_lock_);
      escalated.reserve(arena_.size());
      for (const auto& t : arena_) {
        escalated.emplace_back(t->line_index(), t.get());
      }
    }
    std::sort(escalated.begin(), escalated.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [idx, t] : escalated) fn(idx, t);
  }

  std::size_t tracker_count() const {
    std::lock_guard<Spinlock> g(arena_lock_);
    return arena_.size();
  }

  /// Bytes of shadow metadata attributable to this region (the two side
  /// arrays' whole reservation, touched or not, plus allocated trackers,
  /// including the trackers' lazily-grown per-thread sampling stripes).
  /// Feeds the Figure 8/9 accounting.
  std::size_t metadata_bytes() const {
    std::size_t bytes = num_lines_ * (sizeof(std::atomic<std::uint64_t>) +
                                      sizeof(std::atomic<CacheTracker*>));
    std::lock_guard<Spinlock> g(arena_lock_);
    for (const auto& tracker : arena_) bytes += tracker->metadata_bytes();
    return bytes;
  }

 private:
  const Address base_;
  const LineGeometry geometry_;
  const std::size_t num_lines_;
  // The zero page holds each slot's initial value: an all-zero atomic is a
  // 0 count and a null tracker.
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
  static_assert(std::atomic<CacheTracker*>::is_always_lock_free &&
                sizeof(std::atomic<CacheTracker*>) == sizeof(CacheTracker*));
  const AnonMapping writes_map_;
  const AnonMapping tracking_map_;
  std::atomic<std::uint64_t>* const writes_;
  std::atomic<CacheTracker*>* const tracking_;
  mutable Spinlock arena_lock_;  ///< publishes trackers (slot + arena)
  std::vector<std::unique_ptr<CacheTracker>> arena_;
};

}  // namespace pred
