// Micro-benchmarks (google-benchmark) for the runtime's hot paths: the
// Figure 1 HandleAccess fast path, escalated-line detail tracking, the
// sampling fast-out, allocator throughput, and the two-entry history table.
// These quantify the per-access costs behind Figure 7's overheads.
#include <benchmark/benchmark.h>

#include "alloc/predator_allocator.hpp"
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

}  // namespace
}  // namespace pred
