// Live monitoring: on-demand snapshots of the detector state while the
// workload runs — the findings of Sections 2.3-2.4 surfaced before the exit
// report.
//
// A snapshot reads the state build_report reads: every region's trackers
// (Runtime::for_each_region, ShadowSpace::for_each_tracker) and the
// nominated virtual lines (Runtime::for_each_virtual_line). It ranks the
// top-K lines and rolls up callsites over every tracked line. Nothing runs
// on any access path and the monitor owns no thread, so a line's counts are
// its tracker's counts, exactly.
//
// Ordering guarantee (the `report()` contract extended to snapshots):
// `snapshot()` first publishes the calling thread's staged write counters
// (`flush_staged_writes`, running any threshold checks that became due), so
// every escalation caused by the calling thread's accesses
// program-order-before the call — including escalations the flush itself
// triggers — is in the returned snapshot. Other threads' accesses appear
// as far as their tracker counters have been published.
//
// Two properties follow from reading the trackers:
//   - counts include accesses made before any start() (it is a no-op);
//   - when the allocator recycles a line with zero invalidations,
//     CacheTracker::reset_for_reuse restarts that line's sampled counts, as
//     it does for the report. Invalidations stay monotone.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "runtime/callsite.hpp"

namespace pred {

class Runtime;

struct MonitorConfig {
  /// Hot lines retained in MonitorSnapshot::top_lines.
  std::size_t top_k = 16;
};

/// Immutable view of the detector state at one point in time.
struct MonitorSnapshot {
  struct LineEntry {
    Address line_start = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t samples = 0;        ///< sampled accesses (incl. invalidating)
    std::uint64_t sample_writes = 0;  ///< sampled writes among them
    std::uint64_t predictions = 0;    ///< 1 once prediction started on the line
    bool escalated = false;           ///< has a CacheTracker
    // Attribution: the object holding the line's start, else its last byte.
    bool attributed = false;
    bool is_global = false;
    Address object_start = 0;
    CallsiteId callsite = kNoCallsite;
    std::string label;  ///< global name or innermost callsite frame
  };
  struct CallsiteEntry {
    CallsiteId callsite = kNoCallsite;
    std::string label;  ///< innermost frame (or global name, id kNoCallsite)
    std::uint64_t invalidations = 0;
    std::uint64_t samples = 0;
    std::size_t lines = 0;  ///< distinct hot lines attributed here
  };
  /// A stub: per-producer event counts, which no snapshot fills, the wire
  /// format does not carry and the fleet merge ignores. perfbench's `churn`
  /// still reads `rings`; the next change to the benchmark removes both.
  struct RingEntry {
    std::uint64_t produced = 0;
    std::uint64_t consumed = 0;
    std::uint64_t dropped = 0;
  };

  std::uint64_t sequence = 0;            ///< increments per snapshot taken
  /// escalations + samples + predictions + virtual_lines: what a lossless
  /// event stream would have delivered.
  std::uint64_t events_seen = 0;

  std::uint64_t escalations = 0;  ///< trackers across all regions
  std::uint64_t invalidations = 0;
  std::uint64_t samples = 0;
  std::uint64_t predictions = 0;
  std::uint64_t virtual_lines = 0;  ///< virtual lines nominated

  std::size_t lines_tracked = 0;  ///< lines with a tracker
  std::vector<LineEntry> top_lines;       ///< by invalidations, then samples
  std::vector<CallsiteEntry> callsites;   ///< by invalidations, descending
  std::vector<RingEntry> rings;           ///< always empty (a stub)
};

/// Renders a snapshot as a compact periodic-status block (`watch`-friendly).
std::string format_snapshot(const MonitorSnapshot& snap);

class Monitor {
 public:
  Monitor(const Runtime& runtime, MonitorConfig config);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// No-ops: a snapshot reads the runtime's state, so there is nothing to
  /// start or stop. Kept because callers written against the event-stream
  /// monitor (perfbench's `churn`) still bracket their runs with them.
  void start() {}
  void stop() {}

  const MonitorConfig& config() const { return config_; }

  /// Builds a snapshot of the runtime's current state. Never stops mutator
  /// threads: it flushes the *calling* thread's staged write counters (same
  /// contract as Session::report()), then walks the trackers and virtual
  /// lines. Concurrent calls are serialized, so a higher `sequence` never
  /// carries older counts.
  MonitorSnapshot snapshot();

  /// snapshot() rendered through format_snapshot().
  std::string snapshot_text();

 private:
  const Runtime* runtime_;
  const MonitorConfig config_;
  std::mutex mu_;  ///< serializes snapshot(); guards sequence_
  std::uint64_t sequence_ = 0;
};

}  // namespace pred
