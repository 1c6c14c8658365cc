// Tests for the hot path: region resolution (per-thread cache, then a scan
// of the region table), thread-local write staging and the inline exits.
// Every test here either checks them against an oracle — the same replay
// with each access forced through the slow path and its write count
// published at once, or a brute-force walk of the region table — or pins a
// concurrency property they introduced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <random>
#include <thread>
#include <utility>
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
// --- the slow path reports when every access takes it and publishes its
// --- write count at once. Reports print total_writes, so every comparison
// --- also checks the writes counted in tracker stripes.

void default_config(RuntimeConfig&) {}

/// replay_into_session's round-robin order (quantum 1). The oracle side
/// clears the thread's FastPathCache before each access, so no inline exit
/// can fire, and flushes the write stage after it. With `sync_every` > 0,
/// every thread issues a sync event after each `sync_every` rounds, so its
/// tracked accesses carry a non-zero epoch.
void round_robin_replay(Session& session,
                        const std::vector<ThreadTrace>& traces, bool oracle,
                        std::size_t sync_every) {
  Runtime& rt = session.runtime();
  std::vector<std::size_t> cursor(traces.size(), 0);
  bool progressed = true;
  for (std::size_t round = 1; progressed; ++round) {
    progressed = false;
    for (std::size_t t = 0; t < traces.size(); ++t) {
      if (cursor[t] == traces[t].size()) continue;
      const TraceEvent& ev = traces[t][cursor[t]++];
      if (oracle) t_fastpath_cache = FastPathCache{};
      rt.handle_access(ev.addr, ev.type, static_cast<ThreadId>(t), ev.size);
      if (oracle) flush_staged_writes();
      progressed = true;
    }
    if (sync_every != 0 && round % sync_every == 0) {
      for (std::size_t t = 0; t < traces.size(); ++t) {
        rt.handle_sync(static_cast<ThreadId>(t));
      }
    }
  }
}

/// Where the tracked accesses of a replay went, summed over its trackers.
struct TrackedCounts {
  std::uint64_t total = 0;
  std::uint64_t sampled = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t unsampled() const { return total - sampled - suppressed; }
};

std::string replay_report(const char* workload, bool fast,
                          void (*configure)(RuntimeConfig&) = default_config,
                          TrackedCounts* counts = nullptr,
                          std::size_t sync_every = 0) {
  SessionOptions o;
  o.heap_size = 32 * 1024 * 1024;
  configure(o.runtime);
  Session session(o);
  const wl::Workload* w = wl::find_workload(workload);
  EXPECT_NE(w, nullptr);
  wl::Params p;
  p.threads = 8;
  if (fast && sync_every == 0) {
    w->run_replay(session, p);
  } else {
    round_robin_replay(session, w->capture(session, p), !fast, sync_every);
  }
  if (counts != nullptr) {
    *counts = {};
    session.runtime().for_each_region([&](const ShadowSpace& region) {
      region.for_each_tracker([&](std::size_t, const CacheTracker* t) {
        counts->total += t->total_accesses();
        counts->sampled += t->sampled_accesses();
        counts->suppressed += t->suppressed_accesses();
      });
    });
  }
  return session.report_text();
}

TEST(FastPathDeterminism, HistogramReplayMatchesSeedPath) {
  // Sessions run sequentially, so the heap maps at the same base and the
  // two report texts are comparable byte for byte.
  const std::string fast = replay_report("histogram", true);
  const std::string slow = replay_report("histogram", false);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, LinearRegressionReplayMatchesSeedPath) {
  const std::string fast = replay_report("linear_regression", true);
  const std::string slow = replay_report("linear_regression", false);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, PredictionOffMatchesSeedPath) {
  // No prediction decision to wait for: tracked writes count in stripes
  // from the first one and take the inline exit whenever unsampled.
  auto no_prediction = [](RuntimeConfig& c) {
    c.prediction_enabled = false;
    c.sample_window = 64;
    c.sample_interval = 1024;
  };
  TrackedCounts counts;
  const std::string fast =
      replay_report("histogram", true, no_prediction, &counts);
  const std::string slow = replay_report("histogram", false, no_prediction);
  EXPECT_GT(counts.unsampled(), 0u);
  EXPECT_NE(fast.find("Finding #1"), std::string::npos);
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, WritesOnlyModeMatchesSeedPath) {
  // Reads are dropped in this mode: a tracked read must not tick the
  // sampling clock on the inline path either.
  auto writes_only = [](RuntimeConfig& c) {
    c.instrument_mode = InstrumentMode::kWritesOnly;
  };
  const std::string fast = replay_report("linear_regression", true,
                                         writes_only);
  const std::string slow = replay_report("linear_regression", false,
                                         writes_only);
  EXPECT_FALSE(fast.empty());
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, UnsampledTrackedAccessesMatchSeedPath) {
  // A 1-in-16 sampling window makes most of pca's tracked accesses fall
  // outside it, so the inline tracked exit retires them.
  auto dense_sampling = [](RuntimeConfig& c) {
    c.sample_window = 64;
    c.sample_interval = 1024;
  };
  TrackedCounts counts;
  const std::string fast =
      replay_report("pca", true, dense_sampling, &counts);
  const std::string slow = replay_report("pca", false, dense_sampling);
  EXPECT_GT(counts.unsampled(), 100'000u);
  EXPECT_EQ(fast, slow);
}

// --- the one tracked entry: accesses no inline exit retires go from the
// --- inline path straight to Runtime::handle_tracked, with the word index
// --- from a shift and a mask and the stripe the unsampled check found.

void full_sampling(RuntimeConfig& c) { c.sample_interval = c.sample_window; }

TEST(FastPathDeterminism, FullSamplingMatchesSeedPath) {
  // Every tracked access is sampled, so none retires inline: each one is
  // handed to handle_tracked.
  TrackedCounts counts;
  const std::string fast =
      replay_report("histogram", true, full_sampling, &counts);
  const std::string slow = replay_report("histogram", false, full_sampling);
  EXPECT_GT(counts.sampled, 10'000u);
  EXPECT_EQ(counts.sampled, counts.total);
  EXPECT_NE(fast.find("Finding #1"), std::string::npos);
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, WideLineNarrowWordGeometryMatchesSeedPath) {
  // 128-byte lines of 4-byte words: 32 words per line, so the word index
  // uses every bit of the fan-out masks. Most of streamcluster's tracked
  // accesses are 4-byte and take the inline path.
  auto geometry = [](RuntimeConfig& c) {
    c.geometry = LineGeometry{128, 4};
    full_sampling(c);
  };
  TrackedCounts counts;
  const std::string fast =
      replay_report("streamcluster", true, geometry, &counts);
  const std::string slow = replay_report("streamcluster", false, geometry);
  EXPECT_GT(counts.sampled, 10'000u);
  EXPECT_NE(fast.find("Finding #1"), std::string::npos);
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, NonPowerOfTwoLineTakesTheGenericPath) {
  // 96-byte lines: no shift computes a line index, so there is no inline
  // exit and the generic path alone must match the oracle.
  auto geometry = [](RuntimeConfig& c) {
    c.geometry = LineGeometry{96, 8};
    full_sampling(c);
  };
  TrackedCounts counts;
  const std::string fast =
      replay_report("linear_regression", true, geometry, &counts);
  const std::string slow =
      replay_report("linear_regression", false, geometry);
  EXPECT_GT(counts.sampled, 10'000u);
  EXPECT_NE(fast.find("Finding #1"), std::string::npos);
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDeterminism, SyncedReplayMatchesSeedPath) {
  // Every thread syncs after each 64 rounds, so its tracked accesses carry
  // a non-zero epoch: the inline path hands them to handle_tracked, where
  // the sync-aware check suppresses repeated accesses to a line the thread
  // owns until a virtual line covers it. The oracle replays the same
  // accesses and syncs.
  auto dense_sampling = [](RuntimeConfig& c) {
    c.sample_window = 64;
    c.sample_interval = 1024;
  };
  TrackedCounts counts;
  const std::string fast = replay_report("linear_regression", true,
                                         dense_sampling, &counts, 64);
  const std::string slow = replay_report("linear_regression", false,
                                         dense_sampling, nullptr, 64);
  EXPECT_GT(counts.suppressed, 1'000u);
  EXPECT_GT(counts.sampled, 0u);
  EXPECT_NE(fast.find("Finding #1"), std::string::npos);
  EXPECT_EQ(fast, slow);
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

// --- region resolution: two regions inside one 4 KiB page must both
// --- resolve, and an address no region contains is untracked.

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

// --- region resolution against a brute-force oracle: find_region must name
// --- the first published slot whose extent contains the address, whatever
// --- the layout, the state of the thread's cache or concurrent
// --- registration.

/// Page-aligned arena the random layouts are carved from.
alignas(4096) char g_arena[96 * 4096];

/// (first byte, bytes) of a registered range.
using Range = std::pair<Address, std::size_t>;

/// The oracle: walks every published slot in slot order. The extent check
/// is written out so it does not share ShadowSpace::contains with the code
/// under test.
const ShadowSpace* first_containing(const Runtime& rt, Address addr) {
  const ShadowSpace* found = nullptr;
  rt.for_each_region([&](const ShadowSpace& r) {
    if (found == nullptr && r.base() <= addr && addr < r.end()) found = &r;
  });
  return found;
}

/// A seeded layout of `count` ranges in the arena, in registration order.
/// The first two are small and close, so they share the arena's first
/// 4 KiB page. Each range starts at or past its predecessor's line-rounded
/// end, so extents are disjoint, unless `overlap` lets about half of them
/// start inside their predecessor.
std::vector<Range> random_layout(std::mt19937_64& rng, std::size_t count,
                                 bool overlap) {
  const LineGeometry geo{};
  const Address arena_end = reinterpret_cast<Address>(g_arena) + sizeof g_arena;
  std::vector<Range> out;
  Address cursor = reinterpret_cast<Address>(g_arena);
  for (std::size_t i = 0; i < count; ++i) {
    const bool small = i < 2 || rng() % 3 == 0;
    Address base = cursor + (small ? rng() % 256 : rng() % 4096);
    const std::size_t size = 1 + (small ? rng() % 1024 : rng() % 8192);
    if (overlap && i > 0 && rng() % 2 == 0) {
      base = out.back().first + rng() % out.back().second;
    }
    if (base + size > arena_end) break;
    out.emplace_back(base, size);
    cursor = std::max(cursor, geo.line_base(base + size - 1) + geo.line_size);
  }
  return out;
}

/// For each range: its first and last byte, its line-rounded first byte
/// and the byte before it, its line-rounded last byte and the byte one past
/// it, and a byte inside. Then bytes anywhere in the arena, gaps included,
/// and addresses outside it. Shuffled, so lookups alternate between regions.
std::vector<Address> probe_addresses(const std::vector<Range>& ranges,
                                     std::mt19937_64& rng) {
  const LineGeometry geo{};
  std::vector<Address> out;
  for (const auto& [base, size] : ranges) {
    const Address line_begin = geo.line_base(base);
    const Address line_end = geo.line_base(base + size - 1) + geo.line_size;
    out.insert(out.end(), {base, base + size - 1, line_begin, line_begin - 1,
                           line_end - 1, line_end, base + rng() % size});
  }
  const Address arena = reinterpret_cast<Address>(g_arena);
  for (int i = 0; i < 64; ++i) out.push_back(arena + rng() % sizeof g_arena);
  out.insert(out.end(), {Address{0}, Address{1},
                         reinterpret_cast<Address>(g_page_b), ~Address{0}});
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// Resolves every probe and compares it with the oracle. The calling
/// thread's cache is cleared before about half the lookups, so both the
/// cache hit and the scan answer; `cold` clears it before each one (with
/// overlapping extents a cache hit may name a later slot that also
/// contains the address).
void expect_oracle_resolution(const Runtime& rt,
                              const std::vector<Address>& probes,
                              std::mt19937_64& rng, bool cold,
                              std::uint64_t seed) {
  const Address arena = reinterpret_cast<Address>(g_arena);
  for (Address a : probes) {
    if (cold || rng() % 2 == 0) t_fastpath_cache = FastPathCache{};
    EXPECT_EQ(rt.find_region(a), first_containing(rt, a))
        << "seed " << seed << ", arena offset "
        << static_cast<std::int64_t>(a - arena);
  }
}

TEST(FastPathRegionResolution, RandomLayoutsMatchTheSlotScan) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    // Every fifth layout overfills the table by one to three regions.
    const std::size_t count = seed % 5 == 0
                                  ? Runtime::kMaxRegions + 1 + rng() % 3
                                  : 2 + rng() % (Runtime::kMaxRegions - 1);
    const bool overlap = seed % 4 == 0;
    const std::vector<Range> layout = random_layout(rng, count, overlap);
    Runtime rt(small_config());
    std::size_t dropped = 0;
    for (const auto& [base, size] : layout) {
      if (rt.register_region(base, size) == nullptr) ++dropped;
    }
    EXPECT_EQ(dropped, layout.size() > Runtime::kMaxRegions
                           ? layout.size() - Runtime::kMaxRegions
                           : 0u);
    EXPECT_EQ(rt.regions_dropped(), dropped);
    expect_oracle_resolution(rt, probe_addresses(layout, rng), rng, overlap,
                             seed);
  }
}

TEST(FastPathRegionResolution, SessionGlobalsMatchTheSlotScan) {
  // Globals laid end to end or with gaps, through Session::register_global:
  // one that starts inside its neighbour's last line gets only its
  // uncovered remainder registered, and past fifteen regions (the heap
  // holds a slot) registrations are dropped.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    SessionOptions o;
    o.heap_size = 1024 * 1024;
    Session session(o);
    const std::size_t count = 1 + rng() % (Runtime::kMaxRegions + 2);
    std::vector<Range> globals;
    Address cursor = reinterpret_cast<Address>(g_arena) + rng() % 64;
    for (std::size_t i = 0; i < count; ++i) {
      const Address base = cursor + (rng() % 2 == 0 ? 0 : rng() % 512);
      const std::size_t size = 1 + rng() % 600;
      session.register_global(reinterpret_cast<void*>(base), size, "g");
      globals.emplace_back(base, size);
      cursor = base + size;
    }
    const Runtime& rt = session.runtime();
    expect_oracle_resolution(rt, probe_addresses(globals, rng), rng, false,
                             seed);
    if (rt.regions_dropped() == 0) {
      for (const auto& [base, size] : globals) {
        EXPECT_NE(rt.find_region(base), nullptr) << "seed " << seed;
        EXPECT_NE(rt.find_region(base + size - 1), nullptr) << "seed " << seed;
      }
    }
  }
}

TEST(FastPathRegionResolution, ConcurrentRegistrationKeepsReturnedRegions) {
  // One thread registers a region per arena page while three others
  // resolve addresses in regions register_region has already returned,
  // half of them in the newest one: each must resolve to its own region.
  constexpr int kResolvers = 3;
  const Address arena = reinterpret_cast<Address>(g_arena);
  for (int round = 0; round < 20; ++round) {
    Runtime rt(small_config());
    std::array<ShadowSpace*, Runtime::kMaxRegions> returned{};
    std::atomic<std::size_t> published{0};
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> resolvers;
    for (int t = 0; t < kResolvers; ++t) {
      resolvers.emplace_back([&, t] {
        std::mt19937_64 rng(static_cast<std::uint64_t>(round * kResolvers + t));
        for (bool last = false; !last;) {
          last = done.load(std::memory_order_acquire);
          const std::size_t n = published.load(std::memory_order_acquire);
          for (int k = 0; k < 64 && n > 0; ++k) {
            const std::size_t i = rng() % 2 == 0 ? n - 1 : rng() % n;
            const Address a = arena + i * 4096 + rng() % 4096;
            if (rt.find_region(a) != returned[i]) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::size_t i = 0; i < Runtime::kMaxRegions; ++i) {
      returned[i] = rt.register_region(arena + i * 4096, 4096);
      EXPECT_NE(returned[i], nullptr);
      published.store(i + 1, std::memory_order_release);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (auto& th : resolvers) th.join();
    EXPECT_EQ(wrong.load(), 0u) << "round " << round;
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
  // exactly the prediction_threshold-th write, as on the slow path.
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
  // same access as the slow path — the tracking_threshold-th write.
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
