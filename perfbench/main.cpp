// perfbench: runs one round of one benchmark workload and prints every value
// it measured as a JSON line. run.py drives the rounds and aggregates them;
// run this directly only to inspect a single round:
//
//   perfbench --workload replay --seed 1 [--trace] [--corpus examples/ir]
//
// Exit status is 0 when every correctness check of the round passed.
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload live|replay|ir_pipeline|churn "
               "--seed N [--trace] [--corpus DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.nproc = host_nproc();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--corpus" && has_value) {
      opt.corpus_dir = argv[++i];
    } else if (a == "--trace") {
      opt.trace = true;
    } else {
      return usage();
    }
  }

  void (*run)(perfbench::Round&) = nullptr;
  if (opt.workload == "live") run = perfbench::run_live;
  if (opt.workload == "replay") run = perfbench::run_replay;
  if (opt.workload == "ir_pipeline") run = perfbench::run_ir_pipeline;
  if (opt.workload == "churn") run = perfbench::run_churn;
  if (run == nullptr) return usage();

  perfbench::Round round(opt);
  const auto t0 = perfbench::Clock::now();
  run(round);
  const double wall = perfbench::seconds_since(t0);
  perfbench::finalize(round);
  round.set("peak_rss_mb", perfbench::peak_rss_mb());
  if (opt.trace) {
    round.set("runtime.unattributed_frac",
              wall > 0 ? 1.0 - round.tracer().covered() / wall : 0.0);
  }
  round.print_json(wall);
  return round.failed() == 0 ? 0 : 1;
}
