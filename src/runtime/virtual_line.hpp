// Virtual cache line verification state (Sections 3.3-3.4).
//
// A virtual line is a contiguous byte range that stands in for a cache line
// of a *hypothetical* platform: either a double-sized line [2i, 2i+2) lines
// (predicting larger hardware lines) or a same-sized line at an arbitrary
// starting offset (predicting a different object placement). Once the
// predictor nominates a virtual line (from a hot access pair), the runtime
// feeds every sampled access in its range through a dedicated two-entry
// history table; the resulting invalidation count is the predicted severity.
//
// Concurrency: sampled-access fan-out reaches virtual lines from every
// mutator thread at once, so the packed history table updates with a CAS
// and the counters with relaxed fetch_adds — no serialization point.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "runtime/history_table.hpp"

namespace pred {

class VirtualLineTracker {
 public:
  enum class Kind : std::uint8_t {
    kDoubleLine,  ///< models hardware with 2x line size (Figure 3b)
    kShifted,     ///< models a different object starting address (Figure 3c)
  };

  VirtualLineTracker(Address start, std::size_t size, Kind kind,
                     std::size_t origin_line, Address hot_x, Address hot_y)
      : start_(start),
        size_(size),
        hot_x_(hot_x),
        hot_y_(hot_y),
        origin_line_(origin_line),
        kind_(kind) {}

  bool covers(Address a) const { return a >= start_ && a < start_ + size_; }

  /// Feeds one (sampled) access; counts predicted invalidations.
  void access(Address a, AccessType type, ThreadId tid) {
    if (!covers(a)) return;
    accesses_.fetch_add(1, std::memory_order_relaxed);
    if (history_.access(tid, type) == HistoryOutcome::kInvalidation) {
      invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Address start() const { return start_; }
  std::size_t size() const { return size_; }
  Kind kind() const { return kind_; }
  std::size_t origin_line() const { return origin_line_; }
  Address hot_x() const { return hot_x_; }
  Address hot_y() const { return hot_y_; }

  std::uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  std::uint64_t accesses() const {
    return accesses_.load(std::memory_order_relaxed);
  }

 private:
  PackedHistoryTable history_;
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> accesses_{0};
  const Address start_;
  const std::size_t size_;
  const Address hot_x_;
  const Address hot_y_;
  const std::size_t origin_line_;
  const Kind kind_;
};

}  // namespace pred
