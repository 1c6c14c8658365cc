// Hot-path throughput of the three inline exits of Runtime::handle_access.
// Each phase runs 4 threads, each sweeping round-robin over 8 private cache
// lines (disjoint between threads):
//
//   full               writes to lines that never escalate: region
//                      resolution plus the staged-write exit
//   untracked_read     reads of lines that never escalate
//   tracked_unsampled  alternating write and read sweeps over escalated
//                      lines whose prediction decision is made; 99% of
//                      the accesses fall outside the 1% sampling window
//
// The last two phases also report their throughput relative to `full`,
// which bench/check_bench.py floors. Throughput is counted in
// thread CPU time, so other work on a shared host moves the ratios less.
//
// Usage: microbench_fastpath [accesses_per_thread] [--json FILE]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "bench_util.hpp"

namespace {

constexpr std::uint32_t kThreads = 4;
constexpr std::size_t kLinesPerThread = 8;
constexpr std::uint64_t kNever = ~std::uint64_t{0} >> 1;

enum class Pattern { kWrites, kReads, kWriteReadSweeps };

struct Phase {
  const char* name;
  const char* key;  ///< JSON field stem for --json output
  Pattern pattern;
  pred::RuntimeConfig config;
};

pred::AccessType access_type(Pattern pattern, std::uint64_t i) {
  switch (pattern) {
    case Pattern::kWrites:
      return pred::AccessType::kWrite;
    case Pattern::kReads:
      return pred::AccessType::kRead;
    case Pattern::kWriteReadSweeps:
      break;
  }
  return (i / kLinesPerThread) % 2 == 0 ? pred::AccessType::kWrite
                                        : pred::AccessType::kRead;
}

/// One pass of `accesses_per_thread` accesses per thread; returns the
/// aggregate accesses per second. Each thread times its loop in its own
/// CPU time, so a thread the host deschedules for other work does not
/// count against the layer under test; the aggregate is the sum of the
/// threads' rates.
double run_pass(pred::Session& session, const std::vector<long*>& blocks,
                Pattern pattern, std::uint64_t accesses_per_thread) {
  std::vector<double> rates(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pred::ScopedThread guard(session, t);
      long* block = blocks[t];
      const double start = pred::bench::thread_cpu_seconds();
      for (std::uint64_t i = 0; i < accesses_per_thread; ++i) {
        // Round-robin over the thread's 8 disjoint lines (8 longs per line).
        session.record(&block[(i % kLinesPerThread) * 8],
                       access_type(pattern, i), t, 8);
      }
      rates[t] = static_cast<double>(accesses_per_thread) /
                 (pred::bench::thread_cpu_seconds() - start);
    });
  }
  for (auto& th : threads) th.join();
  double rate = 0.0;
  for (double r : rates) rate += r;
  return rate;
}

double run_phase(const Phase& phase, std::uint64_t accesses_per_thread) {
  pred::SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  o.runtime = phase.config;
  pred::Session session(o);

  const pred::CallsiteId cs = session.intern_frames({"microbench_fastpath"});
  std::vector<long*> blocks(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    blocks[t] = static_cast<long*>(session.alloc(kLinesPerThread * 64, cs));
    if (blocks[t] == nullptr) {
      std::fprintf(stderr, "allocation failed\n");
      std::exit(1);
    }
  }
  // Warm-up pass in the same session (it also escalates the lines of the
  // tracked phase and settles their prediction), then the best of three
  // measured passes: a pass slowed by other work on the host is dropped.
  run_pass(session, blocks, phase.pattern,
           std::max<std::uint64_t>(accesses_per_thread / 8, 8192));
  double best = 0.0;
  for (int r = 0; r < 3; ++r) {
    best = std::max(best, run_pass(session, blocks, phase.pattern,
                                   accesses_per_thread));
  }
  return best;
}

pred::RuntimeConfig never_escalate() {
  pred::RuntimeConfig cfg;
  cfg.tracking_threshold = kNever;
  cfg.prediction_threshold = kNever;
  return cfg;
}

pred::RuntimeConfig one_percent_sampling() {
  pred::RuntimeConfig cfg;
  // The default 1% rate at a finer grain, so every thread's new stripes
  // leave their first sampling window early in the measured pass.
  cfg.sample_window = 100;
  cfg.sample_interval = 10'000;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t accesses = 4'000'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      accesses = std::strtoull(argv[i], nullptr, 10);
      if (accesses == 0) {
        std::fprintf(stderr,
                     "usage: %s [accesses_per_thread > 0] [--json FILE]\n",
                     argv[0]);
        return 1;
      }
    }
  }

  const Phase full = {"full (staged writes, no tracker)", "full",
                      Pattern::kWrites, never_escalate()};
  const Phase exits[] = {
      {"untracked_read (reads, no tracker)", "untracked_read",
       Pattern::kReads, never_escalate()},
      {"tracked_unsampled (tracked, 1% sampled)", "tracked_unsampled",
       Pattern::kWriteReadSweeps, one_percent_sampling()},
  };

  std::printf("inline exits: %u threads x %" PRIu64
              " accesses over private lines\n\n",
              kThreads, accesses);
  std::printf("%-42s %15s %9s\n", "inline exit", "accesses/sec", "vs full");

  pred::bench::JsonWriter json;
  const double full_rate = run_phase(full, accesses);
  std::printf("%-42s %15.0f %8.2fx\n", full.name, full_rate, 1.0);
  json.add(std::string(full.key) + "_aps", full_rate);
  for (const Phase& p : exits) {
    const double rate = run_phase(p, accesses);
    std::printf("%-42s %15.0f %8.2fx\n", p.name, rate, rate / full_rate);
    json.add(std::string(p.key) + "_aps", rate);
    json.add(std::string(p.key) + "_ratio", rate / full_rate);
  }
  if (!json_path.empty()) {
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "json: %s\n", json_path.c_str());
  }
  return 0;
}
