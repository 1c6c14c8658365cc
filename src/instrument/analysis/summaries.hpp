// Bottom-up interprocedural callee access summaries. A summary describes,
// EXACTLY, the instrumentation a callee delivers per invocation: a set of
// (argument base, constant offset, width, read/write) entries with exact
// per-invocation counts — or ⊤ ("unsummarizable") when no such finite exact
// description exists.
//
// Exactness is the load-bearing property: the call-batching stage of
// pass.cpp replaces a callee's dynamic deliveries with preheader kReports
// computed from the summary, and the detector report stays bit-identical
// only if the summary neither over- nor under-counts by even one access
// (tests/test_interprocedural.cpp fails on off-by-one in either direction).
//
// The summarizer is a symbolic interpreter over values of the form
//   constant | arg(j) + constant | opaque
// that follows the callee's unique statically-decided path: every branch
// condition must fold to a compile-time constant, every *delivered* address
// must be arg-relative (or the delivery count provably zero), and inner
// calls must have exact summaries themselves (instantiated by rebasing
// their entries through the call's argument values). Anything else — a
// branch on an argument or loaded value, a data-dependent delivered
// address, an instrumented memory intrinsic, recursion (detected up front
// via the call graph's SCCs), or a blown step budget — bails to ⊤.
// Because the followed path is decided by constants only, it is the path
// EVERY invocation takes, so the collected multiset is exact for all
// arguments and all memory contents.
#pragma once

#include <cstdint>
#include <vector>

#include "instrument/analysis/callgraph.hpp"
#include "instrument/ir.hpp"

namespace pred::ir {

struct AccessSummary {
  struct Entry {
    std::uint32_t arg = 0;     ///< argument index the address is relative to
    std::int64_t offset = 0;   ///< delivered address == arg value + offset
    std::uint32_t width = 0;   ///< access size in bytes
    bool is_write = false;
    std::uint64_t count = 0;   ///< exact deliveries per invocation (> 0)

    auto operator<=>(const Entry&) const = default;
  };

  bool exact = false;          ///< false == ⊤ (no exact finite description)
  /// The callee (or something it transitively calls) executes a sync
  /// intrinsic. Sync intrinsics deliver no instrumentation, so they do not
  /// break exactness — but a caller must not *batch* such a callee (its
  /// acquire/release brackets and handoff claims would be collapsed), and
  /// sync-scoped pruning must treat the call as a sync boundary.
  bool syncs = false;
  std::vector<Entry> entries;  ///< sorted, coalesced by (arg,offset,width,kind)

  /// Total access units delivered per invocation (meaningless for ⊤).
  std::uint64_t total_accesses() const {
    std::uint64_t t = 0;
    for (const Entry& e : entries) t += e.count;
    return t;
  }
};

struct SummaryTable {
  std::vector<AccessSummary> per_function;  ///< indexed like Module::functions

  std::uint64_t num_exact() const {
    std::uint64_t n = 0;
    for (const auto& s : per_function) n += s.exact ? 1 : 0;
    return n;
  }
};

/// Summarizes one function against already-computed callee summaries in
/// `table` (only entries for `f`'s callees are read — process functions in
/// CallGraph::bottom_up() order so they exist). Functions on call cycles
/// are ⊤ without inspection.
AccessSummary summarize_function(const Module& module, std::uint32_t f,
                                 const CallGraph& cg,
                                 const SummaryTable& table);

/// Summaries for every function of an (already instrumented) module.
SummaryTable summarize_module(const Module& module, const CallGraph& cg);

}  // namespace pred::ir
