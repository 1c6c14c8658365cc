// Unit tests for the per-line detail tracker: word histogram placement,
// invalidation counting, the Section 2.4.3 sampling window, reuse reset, and
// virtual-line fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "runtime/cache_tracker.hpp"
#include "runtime/runtime.hpp"
#include "runtime/virtual_line.hpp"

namespace pred {
namespace {

constexpr auto R = AccessType::kRead;
constexpr auto W = AccessType::kWrite;
constexpr LineGeometry kGeo{};  // 64-byte lines, 8-byte words

// Line 10 covers [640, 704).
constexpr Address kLineBase = 640;

CacheTracker make_tracker() { return CacheTracker(10, kGeo); }

/// True iff `h` is exactly {tid, W}: the state a write by `tid` leaves.
bool owned_write_by(const PackedHistoryTable& h, ThreadId tid) {
  const std::uint64_t s = h.raw();
  return PackedHistoryTable::size_of(s) == 1 &&
         PackedHistoryTable::entry_tid(s, 0) == tid &&
         PackedHistoryTable::entry_type(s, 0) == W;
}

TEST(CacheTracker, RecordsWordHistogram) {
  auto t = make_tracker();
  t.handle_access(kLineBase + 0, W, 0, 10'000, 1'000'000);
  t.handle_access(kLineBase + 8, W, 1, 10'000, 1'000'000);
  t.handle_access(kLineBase + 8, R, 1, 10'000, 1'000'000);
  const auto words = t.words_snapshot();
  ASSERT_EQ(words.size(), 8u);
  EXPECT_EQ(words[0].writes, 1u);
  EXPECT_EQ(words[0].owner, 0u);
  EXPECT_EQ(words[1].writes, 1u);
  EXPECT_EQ(words[1].reads, 1u);
  EXPECT_EQ(words[1].owner, 1u);
  EXPECT_FALSE(words[2].touched());
}

TEST(CacheTracker, CountsInvalidationsAcrossWords) {
  auto t = make_tracker();
  // Different threads writing *different words* of one line still
  // invalidate: that is precisely false sharing.
  for (int i = 0; i < 10; ++i) {
    t.handle_access(kLineBase + 0, W, 0, 10'000, 1'000'000);
    t.handle_access(kLineBase + 8, W, 1, 10'000, 1'000'000);
  }
  EXPECT_EQ(t.invalidations(), 19u);  // every write after the first
}

TEST(CacheTracker, SamplingWindowLimitsDetailedTracking) {
  auto t = make_tracker();
  // Window 10 of every 100: out of 1000 accesses, 100 are recorded.
  int sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    sampled += t.handle_access(kLineBase, W, 0, 10, 100).sampled ? 1 : 0;
  }
  EXPECT_EQ(sampled, 100);
  EXPECT_EQ(t.sampled_accesses(), 100u);
  EXPECT_EQ(t.total_accesses(), 1000u);
}

TEST(CacheTracker, FullSamplingRecordsEverything) {
  auto t = make_tracker();
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(t.handle_access(kLineBase, R, 0, 100, 100).sampled);
  }
  EXPECT_EQ(t.sampled_accesses(), 500u);
  EXPECT_EQ(t.sampled_reads(), 500u);
}

TEST(CacheTracker, SampledInvalidationsScaleWithRate) {
  // The paper observes lower sampling rates report fewer invalidations but
  // still detect the problem. Compare 100% vs 10% sampling on a ping-pong.
  auto full = make_tracker();
  auto sampled = make_tracker();
  for (int i = 0; i < 10000; ++i) {
    const ThreadId tid = i % 2;
    full.handle_access(kLineBase, W, tid, 1'000'000, 1'000'000);
    sampled.handle_access(kLineBase, W, tid, 100, 1000);
  }
  EXPECT_GT(full.invalidations(), 9000u);
  EXPECT_GT(sampled.invalidations(), 500u);
  EXPECT_LT(sampled.invalidations(), 2000u);
}

TEST(CacheTracker, ResetForReuseClearsRecordingState) {
  auto t = make_tracker();
  t.handle_access(kLineBase, W, 0, 10'000, 1'000'000);
  t.handle_access(kLineBase, W, 1, 10'000, 1'000'000);
  // A second OS thread, so a second stripe holds word counts too.
  std::thread([&t] {
    t.handle_access(kLineBase + 24, R, 2, 10'000, 1'000'000);
  }).join();
  ASSERT_GT(t.invalidations(), 0u);
  ASSERT_EQ(t.words_snapshot()[3].reads, 1u);
  t.reset_for_reuse();
  EXPECT_EQ(t.invalidations(), 0u);
  EXPECT_EQ(t.sampled_accesses(), 0u);
  for (const auto& w : t.words_snapshot()) {
    EXPECT_EQ(w.reads, 0u);
    EXPECT_EQ(w.writes, 0u);
    EXPECT_EQ(w.owner, kInvalidThread);
  }
  // History is also clear: the next write is not an invalidation.
  t.handle_access(kLineBase, W, 2, 10'000, 1'000'000);
  EXPECT_EQ(t.invalidations(), 0u);
}

TEST(CacheTracker, VirtualLineFanOut) {
  auto t = make_tracker();
  VirtualLineStore store(kGeo);
  const VirtualLineTracker& vl =
      *store.add(kLineBase + 32, 64, VirtualLineTracker::Kind::kShifted,
                 kLineBase + 32, kLineBase + 72);
  EXPECT_EQ(t.fanout_tables(), 0u);
  t.add_virtual_line(vl, 0xf0);  // [672, 736) covers words 4..7 of line 10
  EXPECT_EQ(t.fanout_tables(), 1u);
  // Only accesses to covered words reach the virtual table: had thread 1's
  // write arrived, it would have invalidated thread 0's entry.
  t.update_virtual_lines(5, W, 0);  // byte 40: word 5
  t.update_virtual_lines(1, W, 1);  // word 1: outside the line
  EXPECT_EQ(vl.invalidations(), 0u);
  EXPECT_TRUE(owned_write_by(vl.history(), 0));
}

// --- tracked-path concurrency ----------------------------------------------

// N threads hammer one tracked line, thread w on word `first_word` + w.
// Whatever the interleaving, the tracker's books must balance:
// sampled_reads + sampled_writes == sampled_accesses, the word histogram
// totals sum to sampled_accesses (every sampled access records exactly one
// word), invalidations never exceed sampled writes, and owner states are
// only ever kInvalidThread -> tid -> kSharedWord. With `pokes`, every
// thread also writes word 0 occasionally, so that word goes shared. At full
// sampling each word's reads and writes are exactly what its threads
// delivered, however the threads' stripes interleaved.
void run_conservation(std::uint64_t window, std::uint64_t interval,
                      std::uint32_t threads = 8, std::size_t first_word = 0,
                      bool pokes = true) {
  CacheTracker t(10, kGeo);
  constexpr std::uint64_t kPerThread = 20000;
  const auto word_of = [=](std::uint32_t w, std::uint64_t i) {
    return pokes && i % 64 == 63 ? 0 : first_word + w;
  };
  const auto type_of = [](std::uint64_t i) { return i % 4 == 0 ? R : W; };
  std::vector<std::thread> pool;
  for (std::uint32_t w = 0; w < threads; ++w) {
    pool.emplace_back([&t, &word_of, &type_of, w, window, interval] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        t.handle_access(kLineBase + word_of(w, i) * 8, type_of(i),
                        static_cast<ThreadId>(w), window, interval);
      }
    });
  }
  for (auto& th : pool) th.join();

  const std::uint64_t sampled = t.sampled_accesses();
  EXPECT_EQ(t.sampled_reads() + t.sampled_writes(), sampled);
  EXPECT_EQ(t.total_accesses(), std::uint64_t{threads} * kPerThread);
  EXPECT_LE(sampled, t.total_accesses());
  EXPECT_LE(t.invalidations(), t.sampled_writes());

  std::uint64_t word_total = 0;
  const auto words = t.words_snapshot();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    word_total += words[wi].total();
    if (!words[wi].touched()) {
      EXPECT_EQ(words[wi].owner, kInvalidThread) << "word " << wi;
    } else if (pokes && wi == 0) {
      // Word 0 is poked by every thread: once shared, always shared (the
      // monotone owner state machine cannot regress to a single owner).
      EXPECT_TRUE(words[wi].owner == WordAccess::kSharedWord ||
                  words[wi].owner < threads)
          << "word 0 owner " << words[wi].owner;
    } else {
      // Word wi is only ever touched by thread wi - first_word.
      EXPECT_EQ(words[wi].owner, static_cast<ThreadId>(wi - first_word))
          << "word " << wi;
    }
  }
  EXPECT_EQ(word_total, sampled);

  if (window < interval) return;
  std::vector<WordAccess> delivered(words.size());
  for (std::uint32_t w = 0; w < threads; ++w) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      WordAccess& d = delivered[word_of(w, i)];
      ++(type_of(i) == W ? d.writes : d.reads);
    }
  }
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    EXPECT_EQ(words[wi].reads, delivered[wi].reads) << "word " << wi;
    EXPECT_EQ(words[wi].writes, delivered[wi].writes) << "word " << wi;
  }
}

TEST(CacheTracker, MultiThreadConservationLockFreeFullSampling) {
  run_conservation(1'000'000, 1'000'000);
  // Two threads on adjacent words, each counting its own word in its own
  // stripe.
  run_conservation(1'000'000, 1'000'000, /*threads=*/2, /*first_word=*/3,
                   /*pokes=*/false);
}
TEST(CacheTracker, MultiThreadConservationLockFreePartialSampling) {
  run_conservation(100, 1000);
}

// One word hammered by many threads ends shared; a word touched by exactly
// one thread keeps that owner.
TEST(CacheTracker, OwnerWordMonotoneUnderContention) {
  auto t = make_tracker();
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&t, w] {
      for (int i = 0; i < 5000; ++i) {
        t.handle_access(kLineBase + 16, W, static_cast<ThreadId>(w),
                        1'000'000, 1'000'000);
      }
    });
  }
  for (auto& th : threads) th.join();
  t.handle_access(kLineBase + 24, W, 9, 1'000'000, 1'000'000);
  const auto words = t.words_snapshot();
  EXPECT_EQ(words[2].owner, WordAccess::kSharedWord);
  EXPECT_EQ(words[2].writes, 20000u);
  EXPECT_EQ(words[3].owner, 9u);
}

// Each OS thread's sampling stripe is owner-exclusive, so its clock is
// exact: access number n of that thread is sampled iff n % interval <
// window. From a single OS thread (one stripe) that is one per-line
// counter, the rule tests/test_oracle.cpp's reference detector samples by.
TEST(CacheTracker, StripedSamplingExactFromOneThread) {
  auto t = make_tracker();
  int sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    // Logical tids vary; the stripe is keyed off the OS thread, so the
    // phase is still the single global order.
    sampled +=
        t.handle_access(kLineBase, W, static_cast<ThreadId>(i % 5), 10, 100)
                .sampled
            ? 1
            : 0;
  }
  EXPECT_EQ(sampled, 100);
  EXPECT_EQ(t.sampled_accesses(), 100u);
  EXPECT_EQ(t.total_accesses(), 1000u);
}

// With owner-exclusive stripes the sampling decision is exact *per thread*
// no matter how many threads hammer the tracker: each thread samples the
// first `window` of each of its own `interval`-sized runs, so the total is
// deterministic even under contention.
TEST(CacheTracker, StripedSamplingExactUnderThreads) {
  CacheTracker t(10, kGeo);
  constexpr std::uint64_t kWindow = 10;
  constexpr std::uint64_t kInterval = 100;
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        t.handle_access(kLineBase, W, 0, kWindow, kInterval);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t total = std::uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(t.total_accesses(), total);
  // Per thread: (10000 / 100) intervals, `window` samples in each.
  EXPECT_EQ(t.sampled_accesses(),
            std::uint64_t{kThreads} * (kPerThread / kInterval) * kWindow);
}

// Trackers created disarmed (mid-escalation) count accesses but do not burn
// sampling-window positions until arm(); the phase starts at the first
// post-arming access.
TEST(CacheTracker, ArmedGateDefersSamplingLockFree) {
  CacheTracker t(10, kGeo, /*armed=*/false);
  for (int i = 0; i < 250; ++i) {
    EXPECT_FALSE(t.handle_access(kLineBase, W, 0, 10, 100).sampled);
  }
  EXPECT_EQ(t.sampled_accesses(), 0u);
  EXPECT_EQ(t.total_accesses(), 250u);
  t.arm();
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    sampled += t.handle_access(kLineBase, W, 0, 10, 100).sampled ? 1 : 0;
  }
  EXPECT_EQ(sampled, 10);  // a fresh interval: first 10 of 100
  EXPECT_EQ(t.total_accesses(), 350u);
}

// ---------------------------------------------------------------------------
// Stripe tokens recycled at thread exit
// ---------------------------------------------------------------------------

// A thread returns its stripe token when it exits and the next new thread
// takes it, so a tracker touched by thousands of short-lived threads keeps a
// stripe directory sized by the threads alive at once, not threads-ever.
TEST(CacheTracker, StripeMetadataBoundedUnderThreadChurn) {
  CacheTracker t(10, kGeo);
  constexpr int kThreads = 2000;
  constexpr std::uint64_t kPerThread = 100;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&t] {
      for (std::uint64_t k = 0; k < kPerThread; ++k) {
        t.handle_access(kLineBase, W, 0, 10, 100);
      }
    }).join();
  }
  EXPECT_LT(t.metadata_bytes(), 16u * 1024);
  EXPECT_EQ(t.total_accesses(), kThreads * kPerThread);
}

// Waves of concurrent threads, joined between waves: every wave takes the
// tokens the last one released and inherits their stripes, clocks
// included. Each thread's run is a whole number of intervals, so however
// the tokens were dealt out, exactly `window` of every `interval` accesses
// are sampled and the rest are counted only.
TEST(CacheTracker, RecycledStripesBalanceAcrossThreadWaves) {
  CacheTracker t(10, kGeo);
  constexpr int kWaves = 50;
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    for (std::uint32_t id = 0; id < kThreads; ++id) {
      threads.emplace_back([&t, id] {
        for (std::uint64_t k = 0; k < kPerThread; ++k) {
          t.handle_access(kLineBase + 8 * id, k % 3 == 0 ? R : W, id, 10,
                          100);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const std::uint64_t total = kWaves * kThreads * kPerThread;
  EXPECT_EQ(t.total_accesses(), total);
  EXPECT_EQ(t.sampled_accesses(), total / 10);
  EXPECT_LT(t.metadata_bytes(), 16u * 1024);
}

// 64 threads alive at once, so 64 distinct tokens, touch one tracker. A
// registration fills the thread's entry of the stripe table in place, or
// replaces a table too small for its token with one that has room for
// twice the token. The threads register in ascending token order, which
// replaces the table most often, and still leave at most ceil(log2 64) + 1
// tables whose entries add up to a few times the largest token. The bound
// on the tables' bytes — metadata_bytes() less the tracker and its 64
// stripes — rules out one directory copy per registration, which holds at
// least 1 + 2 + ... + 64 pointers (16.6 KB) here.
TEST(CacheTracker, StripeTableRetentionIsLinear) {
  CacheTracker t(10, kGeo);
  constexpr int kThreads = 64;
  constexpr std::uint64_t kPerThread = 100;
  std::array<std::uint32_t, kThreads> tokens{};
  std::atomic<int> holding{0};
  std::atomic<int> registered{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      tokens[i] = detail::stripe_token();
      holding.fetch_add(1);
      while (holding.load() < kThreads) std::this_thread::yield();
      const auto rank = static_cast<int>(std::count_if(
          tokens.begin(), tokens.end(),
          [&](std::uint32_t other) { return other < tokens[i]; }));
      while (registered.load() != rank) std::this_thread::yield();
      t.handle_access(kLineBase, W, 0, 10, 100);
      registered.fetch_add(1);
      for (std::uint64_t k = 1; k < kPerThread; ++k) {
        t.handle_access(kLineBase, W, 0, 10, 100);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.total_accesses(), kThreads * kPerThread);
  EXPECT_GT(t.stripe_tables(), 1u);
  EXPECT_LE(t.stripe_tables(), 7u);
  // Under 3 KiB of tables beside the tracker and its 64 stripes.
  EXPECT_LT(t.metadata_bytes() - sizeof(CacheTracker) - 64 * t.stripe_bytes(),
            3u * 1024);
}

// Records accesses from a thread_local destructor. Constructed before the
// thread's first tracked access, so it is destroyed after the thread's
// stripe token went back to the free list.
struct ExitTimeAccesses {
  CacheTracker* tracker = nullptr;
  std::atomic<bool>* released = nullptr;
  std::atomic<bool>* successor_holds_token = nullptr;
  std::uint32_t* token = nullptr;

  ExitTimeAccesses() = default;
  ExitTimeAccesses(const ExitTimeAccesses&) = delete;
  ExitTimeAccesses& operator=(const ExitTimeAccesses&) = delete;
  ~ExitTimeAccesses() {
    if (tracker == nullptr) return;
    released->store(true);
    while (!successor_holds_token->load()) std::this_thread::yield();
    *token = detail::stripe_token();
    for (int k = 0; k < 1000; ++k) {
      tracker->handle_access(kLineBase, W, 0, 10, 100);
    }
  }
};

// An access after the release must take a fresh token, never the one it
// returned: by then the next thread holds that token, and two writers on
// one stripe would lose counts.
TEST(CacheTracker, ExitTimeAccessNeverReusesTheReleasedToken) {
  CacheTracker t(10, kGeo);
  std::atomic<bool> released{false};
  std::atomic<bool> successor_holds_token{false};
  std::uint32_t first_token = 0;
  std::uint32_t successor_token = 0;
  std::uint32_t exit_time_token = 0;
  std::thread successor([&] {
    while (!released.load()) std::this_thread::yield();
    successor_token = detail::stripe_token();
    successor_holds_token.store(true);
    for (int k = 0; k < 1000; ++k) {
      t.handle_access(kLineBase + 8, W, 1, 10, 100);
    }
  });
  std::thread first([&] {
    thread_local ExitTimeAccesses late;
    late.tracker = &t;
    late.released = &released;
    late.successor_holds_token = &successor_holds_token;
    late.token = &exit_time_token;
    for (int k = 0; k < 1000; ++k) t.handle_access(kLineBase, W, 0, 10, 100);
    first_token = detail::stripe_token();
  });
  first.join();
  successor.join();
  EXPECT_EQ(successor_token, first_token);  // the released token, recycled
  EXPECT_NE(exit_time_token, first_token);
  EXPECT_EQ(t.total_accesses(), 3000u);
  EXPECT_EQ(t.sampled_accesses(), 300u);
}

// Virtual-line fan-out under concurrent nomination: readers scan the
// published table up to the size they loaded, so a nomination during
// fan-out is simply picked up by the next sampled access.
TEST(CacheTracker, VirtualLineSnapshotGrowsUnderFanOut) {
  auto t = make_tracker();
  VirtualLineStore store(kGeo);
  std::vector<VirtualLineTracker*> vls;
  for (int i = 0; i < 4; ++i) {
    vls.push_back(store.add(kLineBase, 64, VirtualLineTracker::Kind::kShifted,
                            kLineBase, kLineBase + 56));
  }
  std::atomic<bool> stop{false};
  std::thread fanout([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      t.update_virtual_lines(1, W, 1);
    }
  });
  for (const VirtualLineTracker* vl : vls) {
    t.add_virtual_line(*vl, 0xff);
  }
  stop.store(true, std::memory_order_relaxed);
  fanout.join();
  t.update_virtual_lines(1, W, 2);
  for (const VirtualLineTracker* vl : vls) {
    // Every nominated line sees the tail access.
    EXPECT_TRUE(owned_write_by(vl->history(), 2));
  }
}

// 64 nominations on one tracker while four threads fan out: the table
// doubles from one entry to 64, so it is replaced six times, and every
// reader keeps scanning whichever generation it loaded.
TEST(CacheTracker, FanOutTableGrowsUnderConcurrentFanOut) {
  auto t = make_tracker();
  constexpr int kLines = 64;
  constexpr int kReaders = 4;
  VirtualLineStore store(kGeo);
  std::vector<VirtualLineTracker*> vls;
  for (int i = 0; i < kLines; ++i) {
    vls.push_back(store.add(kLineBase, 64, VirtualLineTracker::Kind::kShifted,
                            kLineBase, kLineBase + 56));
  }
  std::atomic<bool> stop{false};
  std::array<std::atomic<std::uint64_t>, kReaders> passes{};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        t.update_virtual_lines(r, W, static_cast<ThreadId>(r));
        passes[r].fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (const VirtualLineTracker* vl : vls) t.add_virtual_line(*vl, 0xff);
  // Two more passes per reader: the second began after the last nomination,
  // so it reached every line.
  for (int r = 0; r < kReaders; ++r) {
    const std::uint64_t seen = passes[r].load(std::memory_order_acquire);
    while (passes[r].load(std::memory_order_acquire) < seen + 2) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  std::vector<std::uint64_t> before;
  for (const auto& vl : vls) before.push_back(vl->invalidations());
  t.update_virtual_lines(5, W, kReaders);  // a new thread
  for (int i = 0; i < kLines; ++i) {
    EXPECT_EQ(vls[i]->invalidations(), before[i] + 1) << "line " << i;
  }
  EXPECT_LE(t.fanout_tables(), 7u);  // ceil(log2 64) + 1
}

// The fan-out table against the definition it replaces: every sampled
// access goes to each virtual line whose byte range covers it. Random
// placements of the shapes the predictor nominates (a shifted line at every
// word offset, double lines, a start clamped to the region base), fed one
// random multi-thread stream through the Runtime at full sampling, must
// count exactly the invalidations of reference tables fed the same stream
// through covers(). 128-byte lines of 4-byte words use all 32 mask bits.
void run_fanout_differential(const LineGeometry geo, std::uint64_t seed) {
  constexpr std::size_t kLinesInRegion = 12;
  alignas(128) static std::uint8_t buffer[kLinesInRegion * 128];
  const Address base = reinterpret_cast<Address>(buffer);
  RuntimeConfig cfg;
  cfg.geometry = geo;
  cfg.set_sampling_rate(1.0);
  Runtime rt(cfg);
  ShadowSpace* region =
      rt.register_region(base, kLinesInRegion * geo.line_size);
  ASSERT_NE(region, nullptr);

  Xorshift64 rng(seed);
  const std::size_t wpl = geo.words_per_line();
  std::vector<VirtualLineTracker*> vls;
  auto nominate = [&](Address start, std::size_t size,
                      VirtualLineTracker::Kind kind) {
    vls.push_back(rt.add_virtual_line(*region, start, size, kind, start,
                                      start + size - geo.word_size));
  };
  for (std::size_t w = 1; w < wpl; ++w) {
    const std::size_t line = rng.next_below(kLinesInRegion);
    nominate(region->line_start(line) + w * geo.word_size, geo.line_size,
             VirtualLineTracker::Kind::kShifted);
  }
  for (int i = 0; i < 4; ++i) {
    const std::size_t pair = rng.next_below(kLinesInRegion / 2);
    nominate(region->line_start(2 * pair), 2 * geo.line_size,
             VirtualLineTracker::Kind::kDoubleLine);
  }
  // The predictor clamps a placement that would start before the region.
  nominate(region->base(), geo.line_size, VirtualLineTracker::Kind::kShifted);

  // Only lines with trackers forward accesses; every access to one of
  // them is sampled.
  std::vector<std::size_t> tracked;
  for (std::size_t i = 0; i < kLinesInRegion; ++i) {
    if (region->tracker(i) != nullptr) tracked.push_back(i);
  }
  struct Reference {
    HistoryTable history;
    std::uint64_t invalidations = 0;
  };
  std::vector<Reference> ref(vls.size());
  std::uint64_t total = 0;
  for (int n = 0; n < 20000; ++n) {
    const std::size_t line = tracked[rng.next_below(tracked.size())];
    const Address addr = region->line_start(line) +
                         rng.next_below(wpl) * geo.word_size +
                         rng.next_below(geo.word_size);
    const AccessType type = rng.next_below(2) == 0 ? R : W;
    const auto tid = static_cast<ThreadId>(rng.next_below(6));
    rt.handle_access(addr, type, tid, 1);
    for (std::size_t i = 0; i < vls.size(); ++i) {
      if (vls[i]->covers(addr) && ref[i].history.access(tid, type) ==
                                      HistoryOutcome::kInvalidation) {
        ++ref[i].invalidations;
      }
    }
  }
  for (std::size_t i = 0; i < vls.size(); ++i) {
    EXPECT_EQ(vls[i]->invalidations(), ref[i].invalidations)
        << "virtual line at +" << vls[i]->start() - base << " size "
        << vls[i]->size();
    total += ref[i].invalidations;
  }
  EXPECT_GT(total, 0u);
}

TEST(CacheTracker, FanOutMatchesRangeCoverage64ByteLines) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_fanout_differential(LineGeometry{64, 8}, seed);
  }
}

TEST(CacheTracker, FanOutMatchesRangeCoverage128ByteLines) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_fanout_differential(LineGeometry{128, 4}, seed);
  }
}

// Threads take turns through one turn counter and call
// Runtime::handle_access on adjacent words of one line, so the runtime sees
// one global order while each invalidation is counted in its winner's own
// token table. Virtual lines shaped like the predictor's (shifted lines
// anchored on the line and on the line before it, and the double line) are
// nominated through the runtime, half before the run and half by the thread
// whose turn it is, so count tables grow while they hold counts. Each
// generation of threads exits before the next starts, so the next reuses the
// released tokens and must carry their counts on. Every virtual line, and
// the physical line, must count exactly what a reference HistoryTable fed
// the same order counts.
void run_turn_differential(std::uint32_t threads, std::uint64_t seed) {
  constexpr std::size_t kLinesInRegion = 8;
  constexpr std::size_t kHot = 3;  // the line the threads write
  constexpr std::uint32_t kGenerations = 4;
  constexpr std::uint32_t kTurnsPerThread = 150;  // per generation
  alignas(64) static std::uint8_t buffer[kLinesInRegion * 64];
  const Address base = reinterpret_cast<Address>(buffer);
  RuntimeConfig cfg;
  cfg.set_sampling_rate(1.0);
  Runtime rt(cfg);
  ShadowSpace* region = rt.register_region(base, sizeof(buffer));
  ASSERT_NE(region, nullptr);

  struct Placement {
    Address start;
    std::size_t size;
    VirtualLineTracker::Kind kind;
  };
  std::vector<Placement> placements;
  for (std::size_t w = 1; w < kGeo.words_per_line(); ++w) {
    for (std::size_t anchor : {kHot - 1, kHot}) {
      placements.push_back({region->line_start(anchor) + w * kGeo.word_size,
                            kGeo.line_size, VirtualLineTracker::Kind::kShifted});
    }
  }
  placements.push_back({region->line_start(kHot - 1), 2 * kGeo.line_size,
                        VirtualLineTracker::Kind::kDoubleLine});
  Xorshift64 rng(seed);
  for (std::size_t i = placements.size() - 1; i > 0; --i) {
    std::swap(placements[i], placements[rng.next_below(i + 1)]);
  }
  auto nominate = [&](const Placement& p) {
    rt.add_virtual_line(*region, p.start, p.size, p.kind, p.start,
                        p.start + p.size - kGeo.word_size);
  };
  const std::size_t upfront = placements.size() / 2;
  for (std::size_t i = 0; i < upfront; ++i) nominate(placements[i]);

  // Turn t belongs to slot t % threads of generation t / (threads *
  // kTurnsPerThread); each generation's threads have their own thread ids.
  // The other placements are nominated at evenly spaced turns.
  const std::uint64_t turns =
      std::uint64_t{kGenerations} * threads * kTurnsPerThread;
  struct Op {
    Address addr;
    AccessType type;
    ThreadId tid;
    int nominate;  ///< index into placements, or -1
  };
  std::vector<Op> ops(turns);
  const std::uint64_t stride = turns / (placements.size() - upfront + 1);
  for (std::uint64_t t = 0; t < turns; ++t) {
    const auto slot = static_cast<std::uint32_t>(t % threads);
    const auto gen = static_cast<std::uint32_t>(t / threads / kTurnsPerThread);
    // Mostly the slot's own word, sometimes its neighbour's.
    const std::size_t word = 2 + slot + rng.next_below(4) / 3;
    ops[t] = {region->line_start(kHot) + word * kGeo.word_size,
              rng.next_below(2) == 0 ? R : W, gen * threads + slot, -1};
    const std::uint64_t k = t / stride;
    if (t % stride == 0 && k >= 1 && upfront + k - 1 < placements.size()) {
      ops[t].nominate = static_cast<int>(upfront + k - 1);
    }
  }

  std::atomic<std::uint64_t> turn{0};
  std::vector<std::uint32_t> tokens(std::size_t{kGenerations} * threads);
  for (std::uint32_t gen = 0; gen < kGenerations; ++gen) {
    std::vector<std::thread> workers;
    for (std::uint32_t slot = 0; slot < threads; ++slot) {
      workers.emplace_back([&, gen, slot] {
        tokens[gen * threads + slot] = detail::stripe_token();
        for (std::uint32_t j = 0; j < kTurnsPerThread; ++j) {
          const std::uint64_t t =
              (std::uint64_t{gen} * kTurnsPerThread + j) * threads + slot;
          while (turn.load(std::memory_order_acquire) != t) {
            std::this_thread::yield();
          }
          const Op& op = ops[t];
          if (op.nominate >= 0) nominate(placements[op.nominate]);
          rt.handle_access(op.addr, op.type, op.tid, kGeo.word_size);
          turn.store(t + 1, std::memory_order_release);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  ASSERT_EQ(turn.load(), turns);
  // Every later generation ran on the tokens the first one released.
  for (std::size_t i = threads; i < tokens.size(); ++i) {
    EXPECT_NE(std::find(tokens.begin(), tokens.begin() + threads, tokens[i]),
              tokens.begin() + threads)
        << "token " << tokens[i];
  }

  // The reference: a line nominated at turn t sees turn t's access on.
  std::vector<const VirtualLineTracker*> vls;
  rt.for_each_virtual_line(
      [&](const VirtualLineTracker& vl) { vls.push_back(&vl); });
  ASSERT_EQ(vls.size(), placements.size());
  struct Reference {
    HistoryTable history;
    std::uint64_t invalidations = 0;
    void access(ThreadId tid, AccessType type) {
      invalidations +=
          history.access(tid, type) == HistoryOutcome::kInvalidation;
    }
  };
  std::vector<Reference> ref(vls.size());
  Reference physical;
  std::size_t live = upfront;
  for (std::uint64_t t = 0; t < turns; ++t) {
    const Op& op = ops[t];
    if (op.nominate >= 0) ++live;
    physical.access(op.tid, op.type);
    for (std::size_t i = 0; i < live; ++i) {
      if (vls[i]->covers(op.addr)) ref[i].access(op.tid, op.type);
    }
  }
  ASSERT_EQ(live, placements.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < vls.size(); ++i) {
    EXPECT_EQ(vls[i]->invalidations(), ref[i].invalidations)
        << "virtual line " << i << " at +" << vls[i]->start() - base
        << " size " << vls[i]->size();
    total += ref[i].invalidations;
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(region->tracker(kHot)->invalidations(), physical.invalidations);
}

TEST(VirtualLineStore, CountsMatchReferenceAcrossThreadTurns) {
  for (std::uint32_t threads = 2; threads <= 4; ++threads) {
    run_turn_differential(threads, threads);
  }
}

// The store's state grows with the lines it holds and the tokens that
// count, not with accesses or threads-ever: at most ceil(n / 8) + anchors
// history blocks for n lines, and at most twice n counts, in host lines of
// eight, per token that counted, all of it in Runtime::metadata_bytes().
TEST(VirtualLineStore, StateIsBoundedByLinesAndLiveTokens) {
  constexpr std::size_t kLinesInRegion = 16;
  constexpr std::uint32_t kThreads = 3;
  constexpr int kGenerations = 12;
  alignas(64) static std::uint8_t buffer[kLinesInRegion * 64];
  const Address base = reinterpret_cast<Address>(buffer);
  RuntimeConfig cfg;
  cfg.set_sampling_rate(1.0);
  Runtime rt(cfg);
  ShadowSpace* region = rt.register_region(base, sizeof(buffer));
  ASSERT_NE(region, nullptr);
  auto nominate = [&](Address start, std::size_t size,
                      VirtualLineTracker::Kind kind) {
    rt.add_virtual_line(*region, start, size, kind, start,
                        start + size - kGeo.word_size);
  };
  // Anchors 2..9: five shifted lines each, and the double line on the even
  // ones (one block each); anchor 12: nine lines (two blocks).
  std::size_t anchors = 0;
  for (std::size_t a = 2; a <= 9; ++a, ++anchors) {
    for (std::size_t w = 1; w <= 5; ++w) {
      nominate(region->line_start(a) + w * kGeo.word_size, kGeo.line_size,
               VirtualLineTracker::Kind::kShifted);
    }
    if (a % 2 == 0) {
      nominate(region->line_start(a), 2 * kGeo.line_size,
               VirtualLineTracker::Kind::kDoubleLine);
    }
  }
  for (std::size_t w = 0; w < kGeo.words_per_line(); ++w) {
    nominate(region->line_start(12) + w * kGeo.word_size, kGeo.line_size,
             VirtualLineTracker::Kind::kShifted);
  }
  nominate(region->line_start(12), 2 * kGeo.line_size,
           VirtualLineTracker::Kind::kDoubleLine);
  ++anchors;
  const VirtualLineStore& store = rt.virtual_lines();
  const std::size_t n = store.size();
  ASSERT_EQ(n, 8 * 5 + 4 + 9u);
  EXPECT_EQ(store.history_blocks(), 10u);
  EXPECT_LE(store.history_blocks(), (n + 7) / 8 + anchors);
  EXPECT_EQ(store.count_table_bytes(), 0u);

  // Generations of kThreads threads, alive together, each writing every
  // word of lines 2..13; each generation reuses the last one's tokens.
  for (int gen = 0; gen < kGenerations; ++gen) {
    std::vector<std::thread> workers;
    for (std::uint32_t k = 0; k < kThreads; ++k) {
      workers.emplace_back([&, k] {
        const auto tid = static_cast<ThreadId>(gen * kThreads + k);
        for (int round = 0; round < 20; ++round) {
          for (std::size_t line = 2; line <= 13; ++line) {
            for (std::size_t w = 0; w < kGeo.words_per_line(); ++w) {
              rt.handle_access(region->line_start(line) + w * kGeo.word_size,
                               W, tid, kGeo.word_size);
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  std::uint64_t invalidations = 0;
  for (const VirtualLineTracker& vl : store) invalidations += vl.invalidations();
  EXPECT_GT(invalidations, 0u);
  EXPECT_GT(store.count_table_bytes(), 0u);
  EXPECT_LE(store.count_table_bytes(), kThreads * ((n + 7) / 8) * kCacheLineSize * 2);

  std::size_t regions = 0;
  rt.for_each_region(
      [&](const ShadowSpace& r) { regions += r.metadata_bytes(); });
  EXPECT_EQ(rt.metadata_bytes(), regions + store.metadata_bytes());
  EXPECT_GE(store.metadata_bytes(),
            n * sizeof(VirtualLineTracker) +
                store.history_blocks() * kCacheLineSize +
                store.count_table_bytes());
}

TEST(CacheTracker, PredictionBeginsExactlyOnce) {
  auto t = make_tracker();
  EXPECT_TRUE(t.try_begin_prediction());
  EXPECT_FALSE(t.try_begin_prediction());
  EXPECT_FALSE(t.try_begin_prediction());
}

TEST(VirtualLineTracker, CountsInvalidationsLikePhysicalLines) {
  VirtualLineStore store(kGeo);
  const VirtualLineTracker& vl = *store.add(
      128, 64, VirtualLineTracker::Kind::kDoubleLine, 128, 184);
  CacheTracker t(2, kGeo);  // line 2 is [128, 192)
  t.add_virtual_line(vl, 0xff);
  for (int i = 0; i < 100; ++i) {
    t.update_virtual_lines(i % 8, AccessType::kWrite,
                           static_cast<ThreadId>(i % 2));
  }
  EXPECT_EQ(vl.invalidations(), 99u);
  EXPECT_TRUE(owned_write_by(vl.history(), 1));  // the last write's thread
}

// ---------------------------------------------------------------------------
// Handoff claims: the synthetic first write Session::handoff delivers
// ---------------------------------------------------------------------------

// Window == interval: every access is sampled, whichever thread's stripe
// (tokens are recycled, so threads that do not overlap share one).
constexpr std::uint64_t kAll = 1;

TEST(HandoffClaim, ClaimForHandoffTransfersOwnership) {
  auto t = make_tracker();
  t.handle_access(kLineBase, W, 0, kAll, kAll);
  // The receiver's claim is a synthetic first write: it invalidates (the
  // line changes owner), standing in for a first write the static pass may
  // have pruned. It is not an access: no clock tick, no histogram entry.
  EXPECT_TRUE(t.claim_for_handoff(/*tid=*/1));
  EXPECT_EQ(t.invalidations(), 1u);
  EXPECT_EQ(t.total_accesses(), 1u);
  // The claim leaves the line {1, W}: the receiver's writes are no-ops.
  t.handle_access(kLineBase + 8, W, 1, kAll, kAll);
  EXPECT_EQ(t.invalidations(), 1u);
  // A claim on an already-owned line is a no-op invalidation-wise.
  EXPECT_FALSE(t.claim_for_handoff(1));
  EXPECT_EQ(t.invalidations(), 1u);
  EXPECT_EQ(t.sampled_accesses(), 2u);
}

TEST(HandoffClaim, ConcurrentHandoffTenuresConserveCounts) {
  // TSan-facing: rotating tenures with racing claims; under full sampling
  // every delivered access is sampled exactly once, and no claim counts as
  // an access.
  auto t = std::make_unique<CacheTracker>(10, kGeo);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kTenures = 200;
  constexpr std::uint64_t kBurst = 32;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&t, id] {
      for (std::uint64_t r = 0; r < kTenures; ++r) {
        t->claim_for_handoff(static_cast<ThreadId>(id));
        for (std::uint64_t i = 0; i < kBurst; ++i) {
          t->handle_access(kLineBase + 8 * (id % 8), W,
                           static_cast<ThreadId>(id), kAll, kAll);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t total = kThreads * kTenures * kBurst;
  EXPECT_EQ(t->sampled_accesses(), total);
  EXPECT_EQ(t->total_accesses(), total);
}

TEST(VirtualLineTracker, IgnoresOutOfRange) {
  // A shifted line [160, 224) over physical lines 2 and 3: the runtime
  // registers words 4..7 of line 2 and words 0..3 of line 3.
  alignas(64) static std::uint8_t buffer[8 * 64];
  const Address base = reinterpret_cast<Address>(buffer);
  Runtime rt;
  ShadowSpace* region = rt.register_region(base, sizeof(buffer));
  VirtualLineTracker* vl =
      rt.add_virtual_line(*region, base + 160, 64,
                          VirtualLineTracker::Kind::kShifted, base + 160,
                          base + 216);
  EXPECT_FALSE(vl->covers(base + 159));
  EXPECT_FALSE(vl->covers(base + 224));
  region->tracker(2)->update_virtual_lines(3, W, 0);  // byte 159
  region->tracker(3)->update_virtual_lines(4, W, 1);  // byte 224
  EXPECT_EQ(vl->history().size(), 0);
  region->tracker(2)->update_virtual_lines(4, R, 0);  // byte 160
  region->tracker(3)->update_virtual_lines(3, R, 1);  // byte 223
  EXPECT_EQ(vl->history().size(), 2);
}

}  // namespace
}  // namespace pred
