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
// mutator thread at once. Coverage is decided at registration (each
// physical line's fan-out table holds a per-word mask, see
// CacheTracker::add_virtual_line), so an access reaches only the lines that
// cover its word, and a covering line writes shared memory only when its
// history automaton changes state: a CAS on the packed table, plus a
// relaxed fetch_add when the change is an invalidation. Each virtual line
// occupies exactly one host line, so neighbouring lines' updates never
// falsely share.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "runtime/history_table.hpp"

namespace pred {

class alignas(kCacheLineSize) VirtualLineTracker {
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

  /// The words of the physical line at `line_start` that this line covers:
  /// bit k is set iff word k lies in the range. Registration computes it
  /// once per overlapped physical line (Runtime::add_virtual_line). A mask
  /// describes whole words, so the range must start and end on word
  /// boundaries.
  std::uint32_t covered_words(Address line_start,
                              const LineGeometry& geo) const {
    std::uint32_t words = 0;
    for (std::size_t k = 0; k < geo.words_per_line(); ++k) {
      if (covers(line_start + k * geo.word_size)) {
        words |= std::uint32_t{1} << k;
      }
    }
    return words;
  }

  /// Feeds one sampled access to a word this line covers; counts predicted
  /// invalidations.
  void access(AccessType type, ThreadId tid) {
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
  const PackedHistoryTable& history() const { return history_; }

 private:
  PackedHistoryTable history_;
  std::atomic<std::uint64_t> invalidations_{0};
  const Address start_;
  const std::size_t size_;
  const Address hot_x_;
  const Address hot_y_;
  const std::size_t origin_line_;
  const Kind kind_;
};

// One host line per virtual line: the history word and the invalidation
// counter every covering access may write sit on a line of their own.
static_assert(sizeof(VirtualLineTracker) == kCacheLineSize);

}  // namespace pred
