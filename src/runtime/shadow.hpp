// Shadow memory for one tracked region (Section 2.3.2, "Optimizing Metadata
// Lookup"): metadata for an address is found by pure address arithmetic.
// Two side arrays exist per region, exactly as in the paper's Section 2.4.1:
//   CacheWrites   — per-line shared write counters driving TrackingThreshold
//                   and PredictionThreshold; once a tracked line's
//                   prediction decision is made, its further writes count
//                   in the tracker's per-thread stripes instead, and
//                   writes_count() adds the two,
//   CacheTracking — per-line pointers to lazily allocated CacheTrackers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/spinlock.hpp"
#include "runtime/cache_tracker.hpp"

namespace pred {

class ShadowSpace {
 public:
  /// `lock_free_trackers` selects the tracked-path implementation for every
  /// tracker this region allocates (RuntimeConfig::lock_free_tracker).
  ShadowSpace(Address base, std::size_t size, const LineGeometry& geometry,
              bool lock_free_trackers = true)
      : base_(geometry.line_base(base)),
        geometry_(geometry),
        num_lines_((base + size - base_ + geometry.line_size - 1) /
                   geometry.line_size),
        lock_free_trackers_(lock_free_trackers),
        writes_(num_lines_),
        tracking_(num_lines_) {
    PRED_CHECK(size > 0);
    for (auto& w : writes_) w.store(0, std::memory_order_relaxed);
    for (auto& t : tracking_) t.store(nullptr, std::memory_order_relaxed);
  }

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
  const std::atomic<CacheTracker*>* trackers() const {
    return tracking_.data();
  }

  /// Allocates (or returns the existing) tracker for a line. Mirrors the
  /// allocCacheTrack + ATOMIC_CAS sequence of Figure 1. `armed = false`
  /// creates the tracker with its sampling clock gated; the caller arms it
  /// once escalation bookkeeping completes (Runtime::ensure_tracked_line).
  CacheTracker* ensure_tracker(std::size_t idx, bool armed = true) {
    CacheTracker* existing = tracking_[idx].load(std::memory_order_acquire);
    if (existing) return existing;
    auto fresh = std::make_unique<CacheTracker>(idx, geometry_,
                                                lock_free_trackers_, armed);
    CacheTracker* raw = fresh.get();
    CacheTracker* expected = nullptr;
    if (tracking_[idx].compare_exchange_strong(expected, raw,
                                               std::memory_order_acq_rel)) {
      std::lock_guard<Spinlock> g(arena_lock_);
      arena_.push_back(std::move(fresh));
      return raw;
    }
    return expected;  // another thread won the race; ours is freed here
  }

  /// Invokes fn(line_index, tracker) for every escalated line.
  template <typename F>
  void for_each_tracker(F&& fn) const {
    for (std::size_t i = 0; i < num_lines_; ++i) {
      if (CacheTracker* t = tracking_[i].load(std::memory_order_acquire)) {
        fn(i, t);
      }
    }
  }

  std::size_t tracker_count() const {
    std::lock_guard<Spinlock> g(arena_lock_);
    return arena_.size();
  }

  /// Bytes of shadow metadata attributable to this region (the two side
  /// arrays plus allocated trackers, including the trackers' lazily-grown
  /// per-thread sampling stripes). Feeds the Figure 8/9 accounting.
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
  const bool lock_free_trackers_;
  std::vector<std::atomic<std::uint64_t>> writes_;
  std::vector<std::atomic<CacheTracker*>> tracking_;
  mutable Spinlock arena_lock_;
  std::vector<std::unique_ptr<CacheTracker>> arena_;
};

}  // namespace pred
