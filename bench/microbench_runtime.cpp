// Micro-benchmarks (google-benchmark) for the runtime's hot paths: the
// Figure 1 HandleAccess fast path, escalated-line detail tracking, the
// sampling fast-out, allocator throughput, and the two-entry history table.
// These quantify the per-access costs behind Figure 7's overheads. Two rows
// time region resolution when the thread's region cache misses, and two
// further rows the fixed costs around a run: session construction (heap
// and shadow reservation) and report building.
#include <benchmark/benchmark.h>

#include "alloc/predator_allocator.hpp"
#include "api/predator.hpp"
#include "runtime/history_table.hpp"
#include "runtime/runtime.hpp"

namespace pred {
namespace {

RuntimeConfig bench_config(std::uint64_t tracking_threshold) {
  RuntimeConfig cfg;
  cfg.tracking_threshold = tracking_threshold;
  cfg.prediction_threshold = ~std::uint64_t{0} >> 1;
  return cfg;
}

alignas(64) char g_mem[1 << 16];

void BM_HistoryTablePingPong(benchmark::State& state) {
  HistoryTable table;
  ThreadId tid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.access(tid ^= 1, AccessType::kWrite));
  }
}
BENCHMARK(BM_HistoryTablePingPong);

void BM_HandleAccessUntrackedRegion(benchmark::State& state) {
  Runtime rt(bench_config(1 << 30));
  for (auto _ : state) {
    rt.handle_access(reinterpret_cast<Address>(g_mem), AccessType::kWrite, 0);
  }
}
BENCHMARK(BM_HandleAccessUntrackedRegion);

void BM_HandleAccessFastPath(benchmark::State& state) {
  // Below TrackingThreshold forever: the pure counting path of Figure 1.
  Runtime rt(bench_config(1 << 30));
  rt.register_region(reinterpret_cast<Address>(g_mem), sizeof(g_mem));
  for (auto _ : state) {
    rt.handle_access(reinterpret_cast<Address>(g_mem), AccessType::kWrite, 0);
  }
}
BENCHMARK(BM_HandleAccessFastPath);

// The two tracked rows turn prediction off, so the escalated line is born
// with its prediction decision made and unsampled writes can retire on the
// inline tracked exit (bench_config's threshold would never settle it).
void BM_HandleAccessTrackedLine(benchmark::State& state) {
  // Default 1% sampling: the first 10k of every 1M writes take the slow
  // path, the rest retire inline.
  RuntimeConfig cfg = bench_config(1);
  cfg.prediction_enabled = false;
  Runtime rt(cfg);
  rt.register_region(reinterpret_cast<Address>(g_mem), sizeof(g_mem));
  rt.handle_access(reinterpret_cast<Address>(g_mem), AccessType::kWrite, 0);
  for (auto _ : state) {
    rt.handle_access(reinterpret_cast<Address>(g_mem), AccessType::kWrite, 0);
  }
}
BENCHMARK(BM_HandleAccessTrackedLine);

void BM_HandleAccessSampledOut(benchmark::State& state) {
  // Outside the sampling window: counter bump only.
  RuntimeConfig cfg = bench_config(1);
  cfg.prediction_enabled = false;
  cfg.sample_window = 1;
  cfg.sample_interval = 1 << 30;
  Runtime rt(cfg);
  rt.register_region(reinterpret_cast<Address>(g_mem), sizeof(g_mem));
  for (int i = 0; i < 4; ++i) {
    rt.handle_access(reinterpret_cast<Address>(g_mem), AccessType::kWrite, 0);
  }
  for (auto _ : state) {
    rt.handle_access(reinterpret_cast<Address>(g_mem), AccessType::kWrite, 0);
  }
}
BENCHMARK(BM_HandleAccessSampledOut);

// Region resolution behind the thread's one-entry region cache, over
// `range(0)` one-page regions.
alignas(4096) char g_regions[Runtime::kMaxRegions][4096];

void register_regions(Runtime& rt, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    rt.register_region(reinterpret_cast<Address>(g_regions[i]), 4096);
  }
}

// Lookups alternate between the first and the last region, so each one
// misses the cache and resolves from the region table.
void BM_FindRegionMiss(benchmark::State& state) {
  Runtime rt(bench_config(1 << 30));
  register_regions(rt, state.range(0));
  const Address addrs[2] = {
      reinterpret_cast<Address>(g_regions[0]) + 64,
      reinterpret_cast<Address>(g_regions[state.range(0) - 1]) + 64};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.find_region(addrs[i ^= 1]));
  }
}
BENCHMARK(BM_FindRegionMiss)->Arg(2)->Arg(16);

// An address no region contains, as every untracked access that reaches
// the slow path resolves.
void BM_FindRegionUntracked(benchmark::State& state) {
  Runtime rt(bench_config(1 << 30));
  register_regions(rt, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.find_region(reinterpret_cast<Address>(g_mem)));
  }
}
BENCHMARK(BM_FindRegionUntracked)->Arg(1)->Arg(16);

void BM_AllocateFreeSmall(benchmark::State& state) {
  Runtime rt(bench_config(1 << 30));
  PredatorAllocator alloc(rt, 64 * 1024 * 1024);
  for (auto _ : state) {
    void* p = alloc.allocate(48, {"bench.c:1"});
    benchmark::DoNotOptimize(p);
    alloc.deallocate(p);
  }
}
BENCHMARK(BM_AllocateFreeSmall);

// A session with the default 256 MB heap: maps the heap and its 64 MiB of
// shadow side arrays, which stay unresident until lines are touched.
void BM_SessionConstruct(benchmark::State& state) {
  for (auto _ : state) {
    Session session;
    benchmark::DoNotOptimize(&session);
  }
}
BENCHMARK(BM_SessionConstruct)->Unit(benchmark::kMicrosecond);

// build_report on a 256 MB heap with 32 escalated lines, one falsely
// shared object each: the walk visits the trackers, not the region's four
// million lines.
void BM_BuildReport(benchmark::State& state) {
  Session session;
  const CallsiteId cs = session.intern_frames({"bench.c:report"});
  for (int obj = 0; obj < 32; ++obj) {
    auto* words = static_cast<long*>(session.alloc(64, cs));
    // Two threads write their own words in turn: escalates the line and
    // fills its history with invalidations.
    for (int i = 0; i < 4000; ++i) {
      session.record(&words[i % 2], AccessType::kWrite,
                     static_cast<ThreadId>(i % 2), 8);
    }
  }
  state.counters["trackers"] = static_cast<double>(
      session.allocator().shadow().tracker_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.report());
  }
}
BENCHMARK(BM_BuildReport)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pred
