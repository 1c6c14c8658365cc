// Offline analysis demo: record an execution once, analyze it many ways.
//
// Captures linear_regression's per-thread access traces, saves them to a
// binary trace file, and then — without re-running the program — analyzes
// the same file under three configurations: full PREDATOR, PREDATOR-NP
// (prediction off), and a write-only SHERIFF-style pass. This is the
// workflow the trace substrate enables on top of the paper's pipeline.
//
// Build & run:  ./build/examples/offline_analysis [trace-file]
#include <cstdio>

#include "baseline/sheriff_like.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

using namespace pred;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/predator_lreg_trace.bin";

  SessionOptions opts;
  opts.heap_size = 32 * 1024 * 1024;

  // --- record once -------------------------------------------------------
  // (the recorder session stays alive: traces reference its heap)
  Session recorder(opts);
  const wl::Workload* lreg = wl::find_workload("linear_regression");
  if (lreg == nullptr) return 1;
  wl::Params params;
  params.threads = 8;
  params.offset = 0;  // the clean placement: nothing observable
  auto traces = lreg->capture(recorder, params);
  if (!save_traces_file(path, traces)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("recorded %zu events from %zu threads -> %s\n\n",
              total_events(traces), traces.size(), path.c_str());

  // --- analyze many ------------------------------------------------------
  std::vector<ThreadTrace> loaded;
  if (!load_traces_file(path, &loaded)) {
    std::fprintf(stderr, "cannot load %s\n", path.c_str());
    return 1;
  }

  // 1) Full PREDATOR.
  wl::replay_into_session(recorder, loaded);
  bool only_predicted = false;
  const bool full = wl::report_mentions_site(
      recorder.report(), recorder.runtime().callsites(),
      lreg->traits().sites[0].where, &only_predicted);
  std::printf("PREDATOR            : %s%s\n", full ? "FOUND" : "missed",
              only_predicted ? " (prediction-only, as the paper reports)"
                             : "");

  // 2) PREDATOR-NP over the same file.
  SessionOptions np = opts;
  np.runtime.prediction_enabled = false;
  Session np_session(np);
  // Track the recorder's heap region so addresses resolve.
  np_session.runtime().register_region(
      recorder.allocator().region().base(),
      recorder.allocator().region().size());
  wl::replay_into_session(np_session, loaded);
  std::size_t np_findings = 0;
  for (const auto& f : build_report(np_session.runtime()).findings) {
    np_findings += f.is_false_sharing();
  }
  std::printf("PREDATOR-NP         : %zu false-sharing findings "
              "(latent bug invisible)\n", np_findings);

  // 3) SHERIFF-style write-write observed-only pass.
  SheriffLikeDetector sheriff;
  for (std::size_t t = 0; t < loaded.size(); ++t) {
    for (const TraceEvent& ev : loaded[t]) {
      sheriff.on_access(ev.addr, ev.type, static_cast<ThreadId>(t));
    }
  }
  std::size_t sheriff_fs = 0;
  for (const auto& line : sheriff.report(100)) {
    sheriff_fs += line.write_write_false_sharing;
  }
  std::printf("SHERIFF-style       : %zu write-write findings\n", sheriff_fs);

  std::printf("\nOne recording, three verdicts — only the predictive "
              "analysis exposes the latent bug.\n");
  return 0;
}
