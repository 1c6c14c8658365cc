// Tests for the redesigned hot path: O(1) region resolution (shadow page
// map + per-thread cache) and thread-local write staging. The fast path is
// on by default; every test here either checks it against the seed-behavior
// ablation (fast_region_lookup / staged_write_counters = false) or pins a
// concurrency property the redesign introduced.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

constexpr AccessType W = AccessType::kWrite;

alignas(64) char g_page_a[4096];
alignas(64) char g_page_b[4096];

RuntimeConfig small_config() {
  RuntimeConfig cfg;
  cfg.tracking_threshold = 4;
  cfg.prediction_threshold = 8;
  cfg.sample_window = 4;
  cfg.sample_interval = 4;
  return cfg;
}

// --- determinism: the inline exits and staging must report exactly what
// --- the seed per-access path reports, access for access. The seed side
// --- also runs the spinlock tracker, so it never takes an inline exit;
// --- replays use one OS thread, where both trackers count identically.
// --- Reports print total_writes, so every comparison also checks the
// --- writes counted in tracker stripes.

void default_config(RuntimeConfig&) {}

std::string replay_report(const char* workload, bool fast,
                          void (*configure)(RuntimeConfig&) = default_config,
                          std::uint64_t* unsampled_tracked = nullptr) {
  SessionOptions o;
  o.heap_size = 32 * 1024 * 1024;
  configure(o.runtime);
  o.runtime.fast_region_lookup = fast;
  o.runtime.staged_write_counters = fast;
  o.runtime.lock_free_tracker = fast;
  Session session(o);
  const wl::Workload* w = wl::find_workload(workload);
  EXPECT_NE(w, nullptr);
  wl::Params p;
  p.threads = 8;
  w->run_replay(session, p);
  if (unsampled_tracked != nullptr) {
    *unsampled_tracked = 0;
    session.runtime().for_each_region([&](const ShadowSpace& region) {
      region.for_each_tracker([&](std::size_t, const CacheTracker* t) {
        *unsampled_tracked += t->total_accesses() - t->sampled_accesses() -
                              t->suppressed_accesses();
      });
    });
  }
  return session.report_text();
}

TEST(FastPathDeterminism, HistogramReplayMatchesSeedPath) {
  // Sessions run sequentially, so the heap maps at the same base and the
  // two report texts are comparable byte for byte.
  const std::string fast = replay_report("histogram", true);
  const std::string seed = replay_report("histogram", false);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, seed);
}

TEST(FastPathDeterminism, LinearRegressionReplayMatchesSeedPath) {
  const std::string fast = replay_report("linear_regression", true);
  const std::string seed = replay_report("linear_regression", false);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, seed);
}

TEST(FastPathDeterminism, PredictionOffMatchesSeedPath) {
  // No prediction decision to wait for: tracked writes count in stripes
  // from the first one and take the inline exit whenever unsampled.
  auto no_prediction = [](RuntimeConfig& c) {
    c.prediction_enabled = false;
    c.sample_window = 64;
    c.sample_interval = 1024;
  };
  std::uint64_t unsampled = 0;
  const std::string fast =
      replay_report("histogram", true, no_prediction, &unsampled);
  const std::string seed = replay_report("histogram", false, no_prediction);
  EXPECT_GT(unsampled, 0u);
  EXPECT_NE(fast.find("Finding #1"), std::string::npos);
  EXPECT_EQ(fast, seed);
}

TEST(FastPathDeterminism, WritesOnlyModeMatchesSeedPath) {
  // Reads are dropped in this mode: a tracked read must not tick the
  // sampling clock on the inline path either.
  auto writes_only = [](RuntimeConfig& c) {
    c.instrument_mode = InstrumentMode::kWritesOnly;
  };
  const std::string fast = replay_report("linear_regression", true,
                                         writes_only);
  const std::string seed = replay_report("linear_regression", false,
                                         writes_only);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, seed);
}

TEST(FastPathDeterminism, UnsampledTrackedAccessesMatchSeedPath) {
  // A 1-in-16 sampling window makes most of pca's tracked accesses fall
  // outside it, so the inline tracked exit retires them.
  auto dense_sampling = [](RuntimeConfig& c) {
    c.sample_window = 64;
    c.sample_interval = 1024;
  };
  std::uint64_t unsampled = 0;
  const std::string fast =
      replay_report("pca", true, dense_sampling, &unsampled);
  const std::string seed = replay_report("pca", false, dense_sampling);
  EXPECT_GT(unsampled, 100'000u);
  EXPECT_EQ(fast, seed);
}

// --- concurrent registration: the seed read-then-store slot claim lost
// --- regions under contention; the fetch_add claim must not.

TEST(FastPathRegistration, ConcurrentRegisterRegionClaimsDistinctSlots) {
  constexpr std::size_t kThreads = 8;
  static char buffers[kThreads][4096];
  Runtime rt(small_config());
  std::atomic<int> ready{0};
  std::vector<ShadowSpace*> out(kThreads, nullptr);
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(kThreads)) {
      }
      out[t] = rt.register_region(reinterpret_cast<Address>(buffers[t]),
                                  sizeof(buffers[t]));
    });
  }
  for (auto& th : ts) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(out[t], nullptr);
    // Every region must survive registration and resolve by address.
    EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(buffers[t]) + 128),
              out[t]);
    for (std::size_t u = t + 1; u < kThreads; ++u) {
      EXPECT_NE(out[t], out[u]) << "two registrations shared a slot";
    }
  }
}

TEST(FastPathRegistration, GlobalStartingInANeighboursLastLineIsCovered) {
  // A 200 B global at line offset 8 makes a region ending at byte 256; a
  // 1 KiB global starting right after it begins inside that region's last
  // line, and its remainder must still be registered.
  alignas(64) static char globals[2048];
  Session session;
  char* a = globals + 8;
  char* b = a + 200;
  session.register_global(a, 200, "a");
  session.register_global(b, 1024, "b");
  Runtime& rt = session.runtime();
  EXPECT_NE(rt.find_region(reinterpret_cast<Address>(b)), nullptr);
  EXPECT_NE(rt.find_region(reinterpret_cast<Address>(b) + 1000), nullptr);
  EXPECT_NE(rt.find_region(reinterpret_cast<Address>(b) + 1023), nullptr);
  EXPECT_EQ(rt.regions_dropped(), 0u);
}

TEST(FastPathRegistration, FullRegionTableDropsAndCounts) {
  // The heap takes one slot, so 15 line-aligned globals fill the table;
  // the next two are dropped and counted instead of aborting, and their
  // accesses are ignored like any untracked address.
  alignas(64) static char globals[17][64];
  Session session;
  for (int i = 0; i < 17; ++i) {
    session.register_global(globals[i], sizeof globals[i], "g");
  }
  Runtime& rt = session.runtime();
  EXPECT_EQ(rt.regions_dropped(), 2u);
  EXPECT_NE(rt.find_region(reinterpret_cast<Address>(globals[14])), nullptr);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(globals[15])), nullptr);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(globals[16])), nullptr);
  for (int i = 0; i < 1000; ++i) {
    session.record(globals[16], W, static_cast<ThreadId>(i & 1), 8);
  }
  const std::string text = session.report_text();
  EXPECT_NE(text.find("Regions dropped: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("No false sharing problems detected."),
            std::string::npos);
}

// --- page-map fallback: two regions inside one 4 KiB page must both
// --- resolve even though the page entry can only name one of them.

TEST(FastPathRegionMap, TwoRegionsOnOnePageBothResolve) {
  alignas(4096) static char page[4096];
  Runtime rt(small_config());
  ShadowSpace* lo = rt.register_region(reinterpret_cast<Address>(page), 1024);
  ShadowSpace* hi =
      rt.register_region(reinterpret_cast<Address>(page) + 2048, 1024);
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(page) + 64), lo);
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(page) + 2048 + 64), hi);
  // The gap between the regions is untracked.
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(page) + 1536), nullptr);
}

TEST(FastPathRegionMap, MissIsDefinitelyUntracked) {
  Runtime rt(small_config());
  rt.register_region(reinterpret_cast<Address>(g_page_a), sizeof(g_page_a));
  EXPECT_EQ(rt.find_region(reinterpret_cast<Address>(g_page_b)), nullptr);
  // And accessing it is a no-op, not a crash.
  rt.handle_access(reinterpret_cast<Address>(g_page_b), W, 0);
}

TEST(FastPathRegionMap, ThreadCacheTracksTheCurrentRuntime) {
  // Alternating lookups against two runtimes through one thread's cache
  // must never leak a region across runtimes.
  Runtime rt1(small_config());
  Runtime rt2(small_config());
  ShadowSpace* r1 =
      rt1.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  ShadowSpace* r2 =
      rt2.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rt1.find_region(reinterpret_cast<Address>(g_page_a) + 8), r1);
    EXPECT_EQ(rt2.find_region(reinterpret_cast<Address>(g_page_a) + 8), r2);
  }
}

// --- staged counters: multi-threaded totals drain exactly.

TEST(FastPathStaging, MultiThreadedDrainLosesNoWrites) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kWritesPerThread = 10'000;
  RuntimeConfig cfg;
  cfg.tracking_threshold = 1'000'000;  // never escalate: pure counting
  cfg.prediction_threshold = 1'000'000;
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime = cfg;
  Session session(o);
  // 8 lines, all threads hammer all of them (staged slots collide and
  // evict constantly).
  auto* data = static_cast<long*>(
      session.alloc(8 * 64, session.intern_frames({"fastpath.c:1"})));
  ASSERT_NE(data, nullptr);
  std::vector<std::thread> ts;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ScopedThread guard(session, t);
      for (std::uint64_t i = 0; i < kWritesPerThread; ++i) {
        session.record(&data[((i + t) % 8) * 8], W, t, 8);
      }
    });  // unbind drains the thread's staged counters
  }
  for (auto& th : ts) th.join();
  auto& shadow = session.allocator().shadow();
  std::uint64_t total = 0;
  const std::size_t first =
      shadow.line_index(reinterpret_cast<Address>(data));
  for (std::size_t i = 0; i < 8; ++i) {
    total += shadow.writes_count(first + i);
  }
  EXPECT_EQ(total, kThreads * kWritesPerThread);
}

TEST(FastPathStaging, MultiThreadedTrackedWritesCountExactly) {
  // Four threads write one escalated line far past prediction_threshold.
  // Writes before the prediction decision land in the shared counter, the
  // rest in per-thread stripes (mostly through the inline tracked exit);
  // writes_count must add them up to exactly the writes issued.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kWritesPerThread = 20'000;
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 16;
  o.runtime.prediction_threshold = 64;
  o.runtime.sample_window = 16;
  o.runtime.sample_interval = 256;
  Session session(o);
  auto* data = static_cast<long*>(
      session.alloc(64, session.intern_frames({"fastpath.c:3"})));
  ASSERT_NE(data, nullptr);
  std::vector<std::thread> ts;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ScopedThread guard(session, t);
      for (std::uint64_t i = 0; i < kWritesPerThread; ++i) {
        session.record(&data[t], W, t, 8);
        session.record(&data[(t + 1) % kThreads], AccessType::kRead, t, 8);
      }
    });  // unbind drains the thread's staged counters
  }
  for (auto& th : ts) th.join();
  auto& shadow = session.allocator().shadow();
  const std::size_t idx = shadow.line_index(reinterpret_cast<Address>(data));
  const CacheTracker* track = shadow.tracker(idx);
  ASSERT_NE(track, nullptr);
  EXPECT_GT(track->stripe_writes(), 0u);
  EXPECT_EQ(shadow.writes_count(idx), kThreads * kWritesPerThread);
}

TEST(FastPathStaging, PredictionFiresOnTheCrossingTrackedWrite) {
  // Until the prediction decision, unsampled tracked writes must still
  // reach the shared counter the threshold check reads: the hook fires on
  // exactly the prediction_threshold-th write, as on the seed path.
  RuntimeConfig cfg = small_config();
  cfg.sample_window = 1;
  cfg.sample_interval = 1000;
  Runtime rt(cfg);
  auto* region =
      rt.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  std::uint64_t fired_at = 0;
  rt.set_prediction_hook([&](Runtime&, ShadowSpace& r, std::size_t idx) {
    fired_at = r.writes_count(idx);
  });
  const Address a = reinterpret_cast<Address>(g_page_a) + 640;
  for (std::uint64_t i = 0; i < 3 * cfg.prediction_threshold; ++i) {
    rt.handle_access(a, W, 0);
  }
  EXPECT_EQ(fired_at, cfg.prediction_threshold);
  EXPECT_EQ(region->writes_count(region->line_index(a)),
            3 * cfg.prediction_threshold);
}

TEST(FastPathStaging, SyncedThreadKeepsTheSuppressionPath) {
  // A thread with a non-zero sync epoch must take the sync-aware path,
  // where its repeated writes to a line it owns are suppressed; the inline
  // tracked exit would tick the sampling clock instead.
  RuntimeConfig cfg = small_config();
  cfg.prediction_enabled = false;
  cfg.sample_window = 1;
  cfg.sample_interval = 1000;
  Runtime rt(cfg);
  auto* region =
      rt.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  const Address a = reinterpret_cast<Address>(g_page_a) + 640;
  for (std::uint64_t i = 0; i < cfg.tracking_threshold; ++i) {
    rt.handle_access(a, W, 0);  // the last one escalates
  }
  rt.handle_sync(0);
  for (int i = 0; i < 100; ++i) rt.handle_access(a, W, 0);
  const std::size_t idx = region->line_index(a);
  ASSERT_NE(region->tracker(idx), nullptr);
  // The first write after the sync claims the line; the other 99 hit.
  EXPECT_EQ(region->tracker(idx)->suppressed_accesses(), 99u);
  EXPECT_EQ(region->writes_count(idx), cfg.tracking_threshold + 100);
}

TEST(FastPathStaging, EscalationHappensOnTheCrossingAccess) {
  // Single-writer stream: the staged path must escalate on exactly the
  // same access as the seed path — the tracking_threshold-th write.
  Runtime rt(small_config());
  auto* region =
      rt.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  const Address a = reinterpret_cast<Address>(g_page_a) + 640;
  const std::size_t idx = region->line_index(a);
  for (std::uint64_t i = 1; i < small_config().tracking_threshold; ++i) {
    rt.handle_access(a, W, 0);
    EXPECT_EQ(region->tracker(idx), nullptr) << "escalated early at " << i;
  }
  rt.handle_access(a, W, 0);
  EXPECT_NE(region->tracker(idx), nullptr) << "missed the crossing access";
}

TEST(FastPathStaging, SessionFlushPublishesStagedCounts) {
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 1'000'000;
  o.runtime.prediction_threshold = 1'000'000;
  Session session(o);
  auto* data = static_cast<long*>(
      session.alloc(64, session.intern_frames({"fastpath.c:2"})));
  auto& shadow = session.allocator().shadow();
  const std::size_t idx = shadow.line_index(reinterpret_cast<Address>(data));
  for (int i = 0; i < 7; ++i) session.record(&data[0], W, 0, 8);
  session.flush();
  EXPECT_EQ(shadow.writes_count(idx), 7u);
}

TEST(FastPathStaging, RuntimeDestructionInvalidatesStagedSlots) {
  // Stage writes into a runtime, destroy it without draining, then stage
  // into a fresh runtime: the stale slots must be dropped, not applied.
  {
    Runtime rt(small_config());
    rt.register_region(reinterpret_cast<Address>(g_page_a), 4096);
    rt.handle_access(reinterpret_cast<Address>(g_page_a), W, 0);
  }  // dies with one staged write outstanding
  Runtime rt2(small_config());
  auto* region =
      rt2.register_region(reinterpret_cast<Address>(g_page_a), 4096);
  rt2.handle_access(reinterpret_cast<Address>(g_page_a), W, 0);
  flush_staged_writes();
  EXPECT_EQ(region->writes_count(0), 1u);
}

}  // namespace
}  // namespace pred
