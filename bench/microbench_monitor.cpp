// Monitor microbench: what a live monitor snapshot costs, and what polling
// it costs the threads being monitored.
//
// Phase A — snapshot and publish cost by tracked lines.
//   One OS thread escalates N lines (N = 256, 4096, 65536; tracking
//   threshold 1, two logical threads writing distinct words of every line,
//   16-line objects spread over 8 callsites), then times
//   Monitor::snapshot() (a walk of every tracker, attribution of every
//   line, the top-K ranking and the callsite rollup) and Session::publish()
//   (a snapshot plus its kSnapshot encoding). Median of the timed calls.
//
// Phase B — tracked-path throughput, with and without a poller.
//   4 threads round-robin writes over 8 lines each with tracking threshold
//   1 and sampling rate 1.0, so every access runs the sampled tracked path;
//   in the second run another thread calls snapshot() every 1 ms until the
//   writers finish. No access path does monitor work, so the difference is
//   what the walk's cache traffic and CPU time cost the writers.
//
// Usage: microbench_monitor [writes_per_thread] [--json FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
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

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename F>
double median_us(int reps, F&& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    us.push_back(seconds_since(start) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

struct SnapshotCost {
  std::size_t lines = 0;
  double snapshot_us = 0.0;
  double publish_us = 0.0;
  std::size_t frame_bytes = 0;
};

SnapshotCost measure_snapshot(std::size_t lines) {
  constexpr std::size_t kLinesPerObject = 16;
  constexpr std::size_t kCallsites = 8;
  pred::SessionOptions o;
  o.heap_size = std::max<std::size_t>(16u << 20, 2 * lines * 64);
  o.runtime.tracking_threshold = 1;
  o.runtime.prediction_enabled = false;
  o.runtime.set_sampling_rate(1.0);
  pred::Session session(o);

  std::vector<pred::CallsiteId> sites;
  for (std::size_t c = 0; c < kCallsites; ++c) {
    const std::string frame = "microbench_monitor.cpp:" + std::to_string(c);
    sites.push_back(session.intern_frames({frame}));
  }
  for (std::size_t obj = 0; obj * kLinesPerObject < lines; ++obj) {
    auto* block = static_cast<long*>(session.alloc(
        kLinesPerObject * 64, sites[obj % kCallsites]));
    if (block == nullptr) {
      std::fprintf(stderr, "allocation failed\n");
      std::exit(1);
    }
    for (std::size_t l = 0; l < kLinesPerObject; ++l) {
      for (int round = 0; round < 2; ++round) {
        session.record(&block[l * 8], pred::AccessType::kWrite, 0, 8);
        session.record(&block[l * 8 + 1], pred::AccessType::kWrite, 1, 8);
      }
    }
  }

  SnapshotCost cost;
  cost.lines = session.monitor().snapshot().lines_tracked;
  const int reps = lines <= 4096 ? 51 : 11;
  cost.snapshot_us =
      median_us(reps, [&] { (void)session.monitor().snapshot(); });
  cost.publish_us = median_us(
      reps, [&] { cost.frame_bytes = session.publish().size(); });
  return cost;
}

constexpr std::uint32_t kThreads = 4;
constexpr std::size_t kLinesPerThread = 8;

struct Throughput {
  double accesses_per_sec = 0.0;
  std::uint64_t snapshots = 0;
};

// One run of the tracked-path workload, optionally with a thread polling
// snapshot() every 1 ms while the writers run.
Throughput run_tracked(bool polled, std::uint64_t writes_per_thread) {
  pred::SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  o.runtime.tracking_threshold = 1;
  o.runtime.prediction_enabled = false;
  o.runtime.set_sampling_rate(1.0);
  pred::Session session(o);

  const pred::CallsiteId cs = session.intern_frames({"microbench_monitor"});
  std::vector<long*> blocks(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    blocks[t] = static_cast<long*>(session.alloc(kLinesPerThread * 64, cs));
    if (blocks[t] == nullptr) {
      std::fprintf(stderr, "allocation failed\n");
      std::exit(1);
    }
  }

  std::atomic<std::uint32_t> running{kThreads};
  Throughput r;
  std::thread poller;
  if (polled) {
    poller = std::thread([&] {
      while (running.load(std::memory_order_acquire) != 0) {
        (void)session.monitor().snapshot();
        ++r.snapshots;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pred::ScopedThread guard(session, t);
      long* block = blocks[t];
      for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
        session.record(&block[(i % kLinesPerThread) * 8],
                       pred::AccessType::kWrite, t, 8);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& th : threads) th.join();
  const double elapsed = seconds_since(start);
  if (poller.joinable()) poller.join();
  r.accesses_per_sec = static_cast<double>(kThreads) *
                       static_cast<double>(writes_per_thread) / elapsed;
  return r;
}

// Warm-up, then best-of-3 measured passes: on small/shared hosts a single
// pass jitters more than the difference being measured.
Throughput run_measured(bool polled, std::uint64_t writes) {
  run_tracked(polled, writes / 8);
  Throughput best;
  for (int pass = 0; pass < 3; ++pass) {
    const Throughput r = run_tracked(polled, writes);
    if (r.accesses_per_sec > best.accesses_per_sec) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t writes = 4'000'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      writes = std::strtoull(argv[i], nullptr, 10);
      if (writes == 0) {
        std::fprintf(stderr,
                     "usage: %s [writes_per_thread > 0] [--json FILE]\n",
                     argv[0]);
        return 1;
      }
    }
  }
  pred::bench::JsonWriter json;

  std::printf("phase A: snapshot and publish cost by tracked lines "
              "(median of the timed calls)\n");
  std::printf("  %10s %14s %14s %12s\n", "lines", "snapshot_us", "publish_us",
              "frame_B");
  for (std::size_t lines : {std::size_t{256}, std::size_t{4096},
                            std::size_t{65536}}) {
    const SnapshotCost c = measure_snapshot(lines);
    std::printf("  %10zu %14.1f %14.1f %12zu\n", c.lines, c.snapshot_us,
                c.publish_us, c.frame_bytes);
    const std::string n = std::to_string(lines);
    json.add("snapshot_us_" + n, c.snapshot_us);
    json.add("publish_us_" + n, c.publish_us);
  }

  // Phase B: everything tracked, every access sampled.
  const Throughput base = run_measured(false, writes);
  const Throughput polled = run_measured(true, writes);
  const double overhead_pct =
      polled.accesses_per_sec > 0.0
          ? (base.accesses_per_sec / polled.accesses_per_sec - 1.0) * 100.0
          : 0.0;
  std::printf("\nphase B: tracked path (%u threads x %" PRIu64
              " writes, threshold 1, sampling 1.0)\n",
              kThreads, writes);
  std::printf("  %-28s %15.0f accesses/sec\n", "no poller",
              base.accesses_per_sec);
  std::printf("  %-28s %15.0f accesses/sec  (%+.2f%% overhead, "
              "%" PRIu64 " snapshots)\n",
              "snapshot() every 1 ms", polled.accesses_per_sec, overhead_pct,
              polled.snapshots);

  if (!json_path.empty()) {
    json.add("tracked_base_aps", base.accesses_per_sec);
    json.add("tracked_polled_aps", polled.accesses_per_sec);
    json.add("tracked_overhead_pct", overhead_pct);
    json.add("tracked_snapshots", static_cast<double>(polled.snapshots));
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "json: %s\n", json_path.c_str());
  }
  return 0;
}
