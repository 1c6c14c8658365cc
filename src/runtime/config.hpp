// Runtime configuration: the thresholds and sampling parameters of
// Sections 2.4 and 3.2 of the paper, plus the modeled line geometry. Each
// field changes what is detected, not how: every runtime layer has one
// implementation, and the seed baselines live in tests and benches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cacheline.hpp"

namespace pred {

/// Which accesses the instrumentation layer forwards to the runtime
/// (Section 2.4.2: "PREDATOR could selectively instrument both reads and
/// writes or only writes").
enum class InstrumentMode : std::uint8_t {
  kReadsAndWrites,  ///< default: full detection (read-write + write-write FS)
  kWritesOnly,      ///< cheaper; detects only write-write false sharing
};

struct RuntimeConfig {
  LineGeometry geometry{};

  /// Writes to a physical line before detailed (word + invalidation)
  /// tracking starts (the paper's TrackingThreshold, Section 2.4.1). Lines
  /// with fewer writes can never be significant bottlenecks, so skipping
  /// them saves both time and tracker memory.
  std::uint64_t tracking_threshold = 100;

  /// Writes to a line before the predictor analyzes its word histogram for
  /// latent false sharing (the paper's PredictionThreshold, Section 3.2,
  /// step 3). Must be >= tracking_threshold.
  std::uint64_t prediction_threshold = 256;

  /// Minimum invalidations for a line (physical or virtual) to appear in the
  /// final report. Filters noise the way the paper's "large number of cache
  /// invalidations" phrasing implies (Section 2.3.1).
  std::uint64_t report_invalidation_threshold = 100;

  /// Sampling on problematic lines (Section 2.4.3): of every
  /// `sample_interval` accesses to a tracked line, only the first
  /// `sample_window` are recorded in detail. Defaults give the paper's 1%.
  std::uint64_t sample_window = 10'000;
  std::uint64_t sample_interval = 1'000'000;

  /// Enables the prediction engine (PREDATOR vs PREDATOR-NP in Figure 7).
  bool prediction_enabled = true;

  InstrumentMode instrument_mode = InstrumentMode::kReadsAndWrites;

  /// Convenience: set the sampling rate keeping the paper's 10k window.
  void set_sampling_rate(double rate) {
    if (rate >= 1.0) {
      sample_interval = sample_window;
      return;
    }
    sample_interval =
        static_cast<std::uint64_t>(static_cast<double>(sample_window) / rate);
  }
};

}  // namespace pred
