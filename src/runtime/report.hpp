// Report construction (Section 2.3.2): walks the shadow spaces, keeps lines
// whose invalidation count crosses the report threshold, separates false
// from true sharing using the per-word histograms, attributes lines to
// program objects, folds in predicted (virtual-line) findings, and ranks
// everything by invalidation count — the paper's proxy for performance
// impact. format_report() renders the Figure 5 layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "runtime/object_registry.hpp"
#include "runtime/runtime.hpp"
#include "runtime/virtual_line.hpp"
#include "runtime/word_access.hpp"

namespace pred {

enum class SharingKind : std::uint8_t {
  kNone,          ///< no multi-thread word pattern (e.g. sampling artifacts)
  kFalseSharing,  ///< distinct threads own distinct words of the line
  kTrueSharing,   ///< a single word is written by multiple threads
  kMixed,         ///< both patterns present on the same line(s)
};

const char* to_string(SharingKind kind);

/// One touched word of a hot line, as shown in Figure 5's word-level block.
struct WordReport {
  Address address = 0;
  std::size_t line_index = 0;  ///< global line number (address / line size)
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  ThreadId owner = kInvalidThread;  ///< WordAccess::kSharedWord when shared
  bool shared = false;
};

/// One hot physical cache line.
struct LineFinding {
  std::size_t line_index = 0;  ///< region-relative index
  Address line_start = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t sampled_accesses = 0;
  std::uint64_t sampled_writes = 0;
  std::uint64_t total_accesses = 0;  ///< unsampled access count
  std::uint64_t total_writes = 0;    ///< unsampled write count
  SharingKind kind = SharingKind::kNone;
  std::vector<WordReport> words;
};

/// One verified virtual line: latent false sharing predicted for a larger
/// line size or a shifted object placement (Section 3.4).
struct PredictedFinding {
  Address start = 0;
  std::size_t size = 0;
  VirtualLineTracker::Kind kind = VirtualLineTracker::Kind::kShifted;
  std::uint64_t invalidations = 0;
  Address hot_x = 0;
  Address hot_y = 0;
};

/// All findings attributed to one program object (heap or global).
struct ObjectFinding {
  ObjectInfo object;       ///< object.size == 0 when attribution failed
  bool attributed = false;
  SharingKind kind = SharingKind::kNone;
  bool observed = false;   ///< hot physical lines exist (detected today)
  bool predicted = false;  ///< hot virtual lines exist (latent problem)
  std::uint64_t invalidations = 0;            ///< observed, physical lines
  std::uint64_t predicted_invalidations = 0;  ///< virtual lines
  std::uint64_t sampled_accesses = 0;
  std::uint64_t sampled_writes = 0;
  std::uint64_t total_accesses = 0;
  std::uint64_t total_writes = 0;
  std::vector<LineFinding> lines;
  std::vector<PredictedFinding> predictions;

  /// Ranking key: projected performance impact.
  std::uint64_t impact() const {
    return invalidations + predicted_invalidations;
  }
  bool is_false_sharing() const {
    return kind == SharingKind::kFalseSharing || kind == SharingKind::kMixed ||
           (predicted && kind == SharingKind::kNone);
  }
};

struct Report {
  std::vector<ObjectFinding> findings;  ///< ranked by impact, descending
  std::uint64_t total_invalidations = 0;
  /// Regions the runtime refused (Runtime::regions_dropped): their
  /// accesses went unobserved.
  std::uint64_t regions_dropped = 0;
  /// Tracked accesses and claims by thread ids too wide for the history
  /// table (Runtime::wide_tid_accesses): recorded in no history.
  std::uint64_t wide_tid_accesses = 0;
};

/// Classifies a word histogram. `words` is one line's (or one object's
/// lines') touched-word list.
SharingKind classify_words(const std::vector<WordReport>& words);

/// Builds the ranked report from the runtime's current state.
Report build_report(const Runtime& rt);

/// Renders one finding / a whole report in the Figure 5 textual layout.
std::string format_finding(const ObjectFinding& finding,
                           const CallsiteTable& callsites);
std::string format_report(const Report& report, const CallsiteTable& callsites);

}  // namespace pred
