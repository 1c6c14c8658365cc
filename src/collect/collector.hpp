// The fleet collector: many processes' monitor snapshots in, one rollup
// out.
//
//   client Sessions ──publish()──► kSnapshot frames ──transport──► Collector
//
//                     Collector::ingest_frame
//                            │  frame layer: magic/version/CRC checked,
//                            │  corrupt frames rejected and counted
//                            ▼
//                     SnapshotCodec::decode
//                            │
//                            ▼
//                     FleetState::absorb under the collector's mutex
//                            │  per-client / per-line / per-site
//                            │  newest-wins join (snapshot_merge.hpp)
//                            ▼
//                     rollup(): [exact, exact+dropped] fleet view
//
// One mutex guards the fleet state, the merged plan and the stats. Frames
// are decoded before the lock is taken, so concurrent ingests serialize
// only on the join itself. The join is commutative, associative and
// idempotent, so any interleaving of concurrent ingests converges to the
// state a sequential FleetState fold of the same frames reaches —
// tests/test_collector.cpp checks this with 64 simulated clients on 8
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "monitor/snapshot_merge.hpp"
#include "repair/plan.hpp"
#include "trace/wire_format.hpp"

namespace pred {

class Collector {
 public:
  /// `top_k`: hot lines retained in the rollup.
  explicit Collector(std::size_t top_k = 16) : top_k_(top_k) {}

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Ingests one complete wire frame (header + payload), as produced by
  /// Session::publish() / hello_frame() / goodbye_frame(). Returns false
  /// on frame corruption, version skew, or an unhandled frame type; the
  /// failure is counted in stats().frames_rejected.
  bool ingest_frame(std::string_view frame_bytes);

  /// Ingests a frame already validated by a FrameStreamParser (the
  /// transport read loops use this to avoid re-parsing).
  bool ingest_frame(const wire::Frame& frame);

  /// Ingests an already-decoded snapshot (the oracle tests and
  /// microbench_collector's rollup phase use this).
  void ingest(std::uint64_t client_uid, std::uint64_t client_pid,
              const MonitorSnapshot& snap);

  /// The fleet rollup of every frame ingested so far. Safe concurrently
  /// with ingest.
  FleetRollup rollup() const;
  std::string rollup_text() const { return format_rollup(rollup()); }

  /// A copy of the fleet state — lets tests compare against an oracle fold
  /// with operator==.
  FleetState state() const;

  /// Union of every plan ingested so far (kRepairPlan frames), merged per
  /// site with best-evidenced-entry-wins semantics (repair::merge_plans) —
  /// the fleet's collective layout advice, served by `serve --emit-plan`.
  repair::RepairPlan merged_plan() const;

  struct Stats {
    std::uint64_t frames_ingested = 0;   ///< valid frames of any type
    std::uint64_t snapshots_ingested = 0;
    std::uint64_t hellos = 0;
    std::uint64_t goodbyes = 0;
    std::uint64_t plans_ingested = 0;    ///< kRepairPlan frames merged
    std::uint64_t frames_rejected = 0;   ///< corrupt/skewed/unknown
  };
  Stats stats() const;

 private:
  const std::size_t top_k_;

  mutable std::mutex mu_;  ///< guards everything below
  FleetState state_;
  repair::RepairPlan merged_plan_;
  Stats stats_;
};

}  // namespace pred
