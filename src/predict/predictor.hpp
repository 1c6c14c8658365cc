// The prediction engine: step 3 (candidate search, Section 3.3) and the
// setup of step 4 (virtual-line verification, Section 3.4) of the paper's
// workflow. Attach one Predictor to a Runtime; the runtime invokes it once
// per line whose write count crosses PredictionThreshold, and the predictor
// responds by nominating virtual lines that the runtime then tracks.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "predict/hot_access.hpp"
#include "runtime/runtime.hpp"

namespace pred {

class Predictor {
 public:
  /// Installs this predictor as the runtime's prediction hook. The predictor
  /// must outlive the runtime's use of the hook.
  void attach(Runtime& rt);

  /// Analyzes line `line_index` of `region` for latent false sharing and
  /// registers virtual-line trackers for accepted candidates. Public so
  /// tests can drive it directly.
  void analyze_line(Runtime& rt, ShadowSpace& region, std::size_t line_index);

  std::uint64_t candidates_nominated() const {
    return candidates_.load(std::memory_order_relaxed);
  }

 private:
  void nominate(Runtime& rt, ShadowSpace& region, std::size_t origin_line,
                Address start, std::size_t size, VirtualLineTracker::Kind kind,
                const HotPair& pair);

  /// Applies a shifted placement across every tracked line of the object
  /// containing the hot pair (Section 3.4: "all cache lines related to the
  /// same object must be adjusted at the same time"), so verification sees
  /// the whole object under the hypothetical placement rather than one
  /// isolated window.
  void adjust_object_lines(Runtime& rt, ShadowSpace& region,
                           std::size_t origin_line, Address shift_start,
                           const HotPair& pair);

  Spinlock lock_;
  std::unordered_set<std::uint64_t> nominated_;  ///< dedup key: start^size
  std::atomic<std::uint64_t> candidates_{0};
};

}  // namespace pred
