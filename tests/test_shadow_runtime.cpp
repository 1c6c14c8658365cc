// Tests for the shadow space (CacheWrites / CacheTracking arrays) and the
// runtime hot path of Figure 1: threshold-gated escalation, adjacent-line
// escalation for prediction, the prediction hook firing, multi-region
// dispatch, and word-splitting of unaligned accesses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "runtime/runtime.hpp"

namespace pred {
namespace {

constexpr auto R = AccessType::kRead;
constexpr auto W = AccessType::kWrite;

RuntimeConfig small_config() {
  RuntimeConfig cfg;
  cfg.tracking_threshold = 4;
  cfg.prediction_threshold = 16;
  cfg.report_invalidation_threshold = 10;
  return cfg;
}

alignas(64) static char g_buffer[4096];

TEST(ShadowSpace, GeometryAndContainment) {
  ShadowSpace s(1000, 200, kDefaultGeometry);
  // Base rounds down to 960; the span covers through byte 1199, so lines
  // 960..1216 exist.
  EXPECT_EQ(s.base(), 960u);
  EXPECT_TRUE(s.contains(960));
  EXPECT_TRUE(s.contains(1199));
  EXPECT_FALSE(s.contains(959));
  EXPECT_EQ(s.line_index(960), 0u);
  EXPECT_EQ(s.line_index(1024), 1u);
  EXPECT_EQ(s.line_start(1), 1024u);
}

TEST(ShadowSpace, EnsureTrackerIsIdempotent) {
  ShadowSpace s(0x10000, 1024, kDefaultGeometry);
  CacheTracker* a = s.ensure_tracker(3);
  CacheTracker* b = s.ensure_tracker(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(s.tracker(3), a);
  EXPECT_EQ(s.tracker(2), nullptr);
}

TEST(ShadowSpace, MetadataBytesGrowWithTrackers) {
  ShadowSpace s(0x10000, 4096, kDefaultGeometry);
  const std::size_t before = s.metadata_bytes();
  s.ensure_tracker(0);
  s.ensure_tracker(1);
  EXPECT_EQ(s.metadata_bytes(), before + 2 * sizeof(CacheTracker));
}

TEST(ShadowSpace, ForEachTrackerVisitsEscalatedLinesInLineOrder) {
  ShadowSpace s(0x10000, 1024 * 64, kDefaultGeometry);
  for (std::size_t idx : {900, 3, 512}) s.ensure_tracker(idx);
  std::vector<std::size_t> seen;
  s.for_each_tracker([&](std::size_t idx, CacheTracker* t) {
    EXPECT_EQ(t, s.tracker(idx));
    seen.push_back(idx);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 512, 900}));
}

// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  unsigned long pages = 0;
  unsigned long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%lu %lu", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// The shadow side arrays are demand-zero: a session over the default
// 256 MB heap reserves 64 MiB of them but makes none of it resident until
// the program touches lines. Registering regions makes nothing resident
// either: fifteen globals fill the region table and cost only their own
// small shadows.
TEST(ShadowSpace, SessionShadowIsNotResidentUntilTouched) {
  alignas(64) static char globals[15][64];
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  Session session{SessionOptions{}};
  ASSERT_EQ(session.allocator().region().size(), 256u * 1024 * 1024);
  for (auto& g : globals) session.register_global(g, sizeof g, "g");
  ASSERT_EQ(session.runtime().regions_dropped(), 0u);
  const std::size_t after = resident_bytes();
  EXPECT_LT(after > before ? after - before : 0, 1u * 1024 * 1024);
}

TEST(Runtime, IgnoresUntrackedAddresses) {
  Runtime rt(small_config());
  // No region registered: must be a no-op, not a crash.
  rt.handle_access(reinterpret_cast<Address>(g_buffer), W, 0);
}

TEST(Runtime, NoTrackingBelowThreshold) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address a = reinterpret_cast<Address>(g_buffer);
  for (int i = 0; i < 3; ++i) rt.handle_access(a, W, 0);
  EXPECT_EQ(region->tracker(region->line_index(a)), nullptr);
  // Pre-threshold writes sit in the thread-local stage until drained.
  flush_staged_writes();
  EXPECT_EQ(region->writes_count(region->line_index(a)), 3u);
}

TEST(Runtime, EscalatesAtTrackingThreshold) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address a = reinterpret_cast<Address>(g_buffer) + 640;
  for (int i = 0; i < 4; ++i) rt.handle_access(a, W, 0);
  const std::size_t idx = region->line_index(a);
  ASSERT_NE(region->tracker(idx), nullptr);
  // Prediction enabled: adjacent lines get trackers too (Section 3.2
  // step 2).
  EXPECT_NE(region->tracker(idx - 1), nullptr);
  EXPECT_NE(region->tracker(idx + 1), nullptr);
}

TEST(Runtime, NoAdjacentEscalationWithoutPrediction) {
  RuntimeConfig cfg = small_config();
  cfg.prediction_enabled = false;
  Runtime rt(cfg);
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address a = reinterpret_cast<Address>(g_buffer) + 640;
  for (int i = 0; i < 4; ++i) rt.handle_access(a, W, 0);
  const std::size_t idx = region->line_index(a);
  EXPECT_NE(region->tracker(idx), nullptr);
  EXPECT_EQ(region->tracker(idx - 1), nullptr);
  EXPECT_EQ(region->tracker(idx + 1), nullptr);
}

TEST(Runtime, ReadsAloneNeverEscalate) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address a = reinterpret_cast<Address>(g_buffer);
  for (int i = 0; i < 1000; ++i) rt.handle_access(a, R, i % 4);
  EXPECT_EQ(region->tracker(region->line_index(a)), nullptr);
}

TEST(Runtime, PredictionHookFiresOnceAtThreshold) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  std::atomic<int> fired{0};
  std::size_t hook_line = ~0ull;
  rt.set_prediction_hook(
      [&](Runtime&, ShadowSpace&, std::size_t line) {
        ++fired;
        hook_line = line;
      });
  const Address a = reinterpret_cast<Address>(g_buffer) + 1280;
  for (int i = 0; i < 100; ++i) rt.handle_access(a, W, 0);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(hook_line, region->line_index(a));
}

TEST(Runtime, HookDoesNotFireWhenPredictionDisabled) {
  RuntimeConfig cfg = small_config();
  cfg.prediction_enabled = false;
  Runtime rt(cfg);
  rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  int fired = 0;
  rt.set_prediction_hook(
      [&](Runtime&, ShadowSpace&, std::size_t) { ++fired; });
  const Address a = reinterpret_cast<Address>(g_buffer);
  for (int i = 0; i < 100; ++i) rt.handle_access(a, W, 0);
  EXPECT_EQ(fired, 0);
}

TEST(Runtime, WritesOnlyModeDropsReads) {
  RuntimeConfig cfg = small_config();
  cfg.instrument_mode = InstrumentMode::kWritesOnly;
  Runtime rt(cfg);
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address a = reinterpret_cast<Address>(g_buffer);
  for (int i = 0; i < 8; ++i) rt.handle_access(a, W, 0);
  CacheTracker* t = region->tracker(region->line_index(a));
  ASSERT_NE(t, nullptr);
  for (int i = 0; i < 50; ++i) rt.handle_access(a, R, 1);
  EXPECT_EQ(t->sampled_reads(), 0u);
}

TEST(Runtime, UnalignedAccessSplitsAcrossWords) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address base = reinterpret_cast<Address>(g_buffer);
  // Escalate line 0 first.
  for (int i = 0; i < 4; ++i) rt.handle_access(base, W, 0);
  // An 8-byte access at offset 4 touches words 0 and 1.
  rt.handle_access(base + 4, W, 0, 8);
  CacheTracker* t = region->tracker(0);
  ASSERT_NE(t, nullptr);
  const auto words = t->words_snapshot();
  EXPECT_GE(words[0].writes, 1u);
  EXPECT_GE(words[1].writes, 1u);
}

TEST(Runtime, MultipleRegionsDispatchCorrectly) {
  Runtime rt(small_config());
  alignas(64) static char other[1024];
  auto* r1 = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  auto* r2 = rt.register_region(reinterpret_cast<Address>(other), 1024);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(g_buffer) + 100), r1);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(other) + 100), r2);
  EXPECT_EQ(rt.find_region(1), nullptr);
}

TEST(Runtime, ThreadIdsAreDense) {
  Runtime rt;
  EXPECT_EQ(rt.register_thread(), 0u);
  EXPECT_EQ(rt.register_thread(), 1u);
  EXPECT_EQ(rt.register_thread(), 2u);
  EXPECT_EQ(rt.thread_count(), 3u);
}

TEST(Runtime, ConcurrentEscalationIsSafe) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address a = reinterpret_cast<Address>(g_buffer) + 2048;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rt, a, t] {
      for (int i = 0; i < 5000; ++i) {
        rt.handle_access(a + 8 * static_cast<Address>(t), W,
                         static_cast<ThreadId>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  CacheTracker* tr = region->tracker(region->line_index(a));
  ASSERT_NE(tr, nullptr);
  // All post-escalation accesses were seen (20000 total minus the at most
  // ~threshold*threads that raced pre-escalation).
  EXPECT_GT(tr->total_accesses(), 19000u);
  EXPECT_GT(tr->invalidations(), 0u);
}

TEST(Runtime, VirtualLineRegistrationCoversAllOverlappedLines) {
  Runtime rt(small_config());
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buffer), 4096);
  const Address base = reinterpret_cast<Address>(g_buffer);
  // A shifted virtual line straddling lines 1 and 2.
  auto* vl = rt.add_virtual_line(*region, base + 96, 64,
                                 VirtualLineTracker::Kind::kShifted, base + 96,
                                 base + 136);
  ASSERT_NE(vl, nullptr);
  ASSERT_NE(region->tracker(1), nullptr);
  ASSERT_NE(region->tracker(2), nullptr);
  EXPECT_TRUE(region->tracker(1)->has_virtual_lines());
  EXPECT_TRUE(region->tracker(2)->has_virtual_lines());
  EXPECT_EQ(rt.virtual_lines().size(), 1u);
}

}  // namespace
}  // namespace pred
