// Fleet merge algebra for MonitorSnapshots.
//
// A fleet client streams *cumulative* snapshots (every counter in a
// MonitorSnapshot is monotone over the session's life, and `sequence`
// totally orders the snapshots of one client). That makes fleet
// aggregation a lattice join rather than a sum: the collector's state is a
// product of per-key "newest wins" semilattices —
//
//   (client uid)            -> the client's newest scalar totals
//   (client uid, line)      -> the newest top-K line entry seen for it
//   (client uid, site key)  -> the newest callsite rollup entry seen
//
// joined pointwise under a deterministic total order (sequence first, then
// full content as the tie-break). Join is commutative, associative, and
// idempotent — re-delivered frames, reordered transports, and arbitrary
// merge trees all converge to the same state, so the collector
// (src/collect/) may ingest frames in whatever order they arrive.
// tests/test_collector.cpp proves the algebra laws over randomized
// snapshot sets.
//
// Drop reconciliation: rings shed events visibly (`events_dropped`), and a
// shed event could have been an invalidation or sample anywhere, so the
// rollup reports every count as a conservative interval
// [exact, exact + dropped] — exact sums what survived aggregation, the
// upper bound charges every dropped event in the fleet against the count.
// A lossless oracle run always lands inside the interval.
//
// One subtlety the per-line decomposition handles: a line can fall out of
// a client's top-K between snapshots. Whole-snapshot newest-wins would
// forget it; per-(client, line) newest-wins retains its last published
// counts, which — counters being monotone — remain a valid lower bound.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "monitor/monitor.hpp"

namespace pred {

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One client's newest whole-snapshot scalars (top_lines/callsites kept for
/// rollup label resolution; the per-key maps below are authoritative for
/// lines and sites).
struct ClientRec {
  std::uint64_t pid = 0;
  MonitorSnapshot latest;
};

struct LineRec {
  std::uint64_t sequence = 0;  ///< snapshot the entry was published in
  MonitorSnapshot::LineEntry entry;
};

struct SiteRec {
  std::uint64_t sequence = 0;
  MonitorSnapshot::CallsiteEntry entry;
};

// ---------------------------------------------------------------------------
// Fleet state
// ---------------------------------------------------------------------------

/// The fleet-wide rollup served to operators: exact counts plus
/// conservative [exact, upper] bounds that absorb ring drops.
struct FleetRollup {
  std::uint64_t clients = 0;
  std::uint64_t events_seen = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t escalations = 0;
  std::uint64_t invalidations = 0;        ///< exact (aggregated events only)
  std::uint64_t invalidations_upper = 0;  ///< + events_dropped
  std::uint64_t samples = 0;
  std::uint64_t samples_upper = 0;
  std::uint64_t predictions = 0;
  std::uint64_t virtual_lines = 0;
  std::uint64_t lines_tracked = 0;  ///< across clients

  struct Line {
    std::uint64_t client_uid = 0;
    std::uint64_t client_pid = 0;
    Address line_start = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t invalidations_upper = 0;
    std::uint64_t samples = 0;
    std::uint64_t sample_writes = 0;
    std::uint64_t predictions = 0;
    bool escalated = false;
    bool attributed = false;
    bool is_global = false;
    std::string label;
  };
  /// Fleet-wide top-K lines by exact invalidations (then samples, then
  /// (uid, line) for determinism).
  std::vector<Line> top_lines;

  struct Site {
    std::string label;  ///< symbolic source location, stable fleet-wide
    std::uint64_t invalidations = 0;
    std::uint64_t invalidations_upper = 0;
    std::uint64_t samples = 0;
    std::uint64_t samples_upper = 0;
    std::uint64_t lines = 0;    ///< distinct hot lines across the fleet
    std::uint64_t clients = 0;  ///< clients reporting this site
  };
  /// Callsite rollup grouped by label across clients, sorted by exact
  /// invalidations descending.
  std::vector<Site> sites;
};

std::string format_rollup(const FleetRollup& rollup);

/// The fleet state: the three newest-wins maps described at the top of
/// this file. Not thread-safe; the Collector guards its one instance with
/// a mutex.
class FleetState {
 public:
  /// Joins one snapshot into the state.
  void absorb(std::uint64_t client_uid, std::uint64_t client_pid,
              const MonitorSnapshot& snap);

  /// Joins another fleet state (e.g. a sub-collector's) into this one.
  void merge(const FleetState& other);

  FleetRollup rollup(std::size_t top_k) const;

  /// Structural equality (used by the algebra-law and collector tests).
  bool operator==(const FleetState& other) const;

 private:
  std::map<std::uint64_t, ClientRec> clients_;
  std::map<std::pair<std::uint64_t, Address>, LineRec> lines_;
  std::map<std::pair<std::uint64_t, std::string>, SiteRec> sites_;
};

}  // namespace pred
