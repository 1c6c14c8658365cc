// Unit tests for the per-line detail tracker: word histogram placement,
// invalidation counting, the Section 2.4.3 sampling window, reuse reset, and
// virtual-line fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/cache_tracker.hpp"

namespace pred {
namespace {

constexpr auto R = AccessType::kRead;
constexpr auto W = AccessType::kWrite;
constexpr LineGeometry kGeo{};  // 64-byte lines, 8-byte words

// Line 10 covers [640, 704).
constexpr Address kLineBase = 640;

CacheTracker make_tracker() { return CacheTracker(10, kGeo); }

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
  ASSERT_GT(t.invalidations(), 0u);
  t.reset_for_reuse();
  EXPECT_EQ(t.invalidations(), 0u);
  EXPECT_EQ(t.sampled_accesses(), 0u);
  for (const auto& w : t.words_snapshot()) EXPECT_FALSE(w.touched());
  // History is also clear: the next write is not an invalidation.
  t.handle_access(kLineBase, W, 2, 10'000, 1'000'000);
  EXPECT_EQ(t.invalidations(), 0u);
}

TEST(CacheTracker, VirtualLineFanOut) {
  auto t = make_tracker();
  VirtualLineTracker vl(kLineBase + 32, 64, VirtualLineTracker::Kind::kShifted,
                        10, kLineBase + 32, kLineBase + 72);
  EXPECT_FALSE(t.has_virtual_lines());
  t.add_virtual_line(&vl);
  EXPECT_TRUE(t.has_virtual_lines());
  // Only accesses inside the virtual range reach the virtual table.
  t.update_virtual_lines(kLineBase + 40, W, 0);
  t.update_virtual_lines(kLineBase + 8, W, 1);  // outside [672, 736)
  EXPECT_EQ(vl.accesses(), 1u);
}

// --- tracked-path concurrency ----------------------------------------------

// N threads hammer one tracked line. Whatever the interleaving, the
// tracker's books must balance: sampled_reads + sampled_writes ==
// sampled_accesses, the word histogram totals sum to sampled_accesses
// (every sampled access records exactly one word), invalidations never
// exceed sampled writes, and owner states are only ever
// kInvalidThread -> tid -> kSharedWord.
void run_conservation(std::uint64_t window, std::uint64_t interval) {
  CacheTracker t(10, kGeo);
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t, w, window, interval] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Each thread owns word w; every fourth access is a read; every
        // thread also pokes word 0 occasionally so one word goes shared.
        const bool shared_poke = (i % 64) == 63;
        const Address addr = kLineBase + (shared_poke ? 0 : w * 8);
        const AccessType type = (i % 4 == 0) ? R : W;
        t.handle_access(addr, type, static_cast<ThreadId>(w), window,
                        interval);
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t sampled = t.sampled_accesses();
  EXPECT_EQ(t.sampled_reads() + t.sampled_writes(), sampled);
  EXPECT_EQ(t.total_accesses(), std::uint64_t{kThreads} * kPerThread);
  EXPECT_LE(sampled, t.total_accesses());
  EXPECT_LE(t.invalidations(), t.sampled_writes());

  std::uint64_t word_total = 0;
  const auto words = t.words_snapshot();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    word_total += words[wi].total();
    if (!words[wi].touched()) {
      EXPECT_EQ(words[wi].owner, kInvalidThread) << "word " << wi;
    } else if (wi == 0) {
      // Word 0 is poked by every thread: once shared, always shared (the
      // monotone owner state machine cannot regress to a single owner).
      EXPECT_TRUE(words[wi].owner == WordAccess::kSharedWord ||
                  words[wi].owner < kThreads)
          << "word 0 owner " << words[wi].owner;
    } else {
      // Word wi is only ever touched by thread wi.
      EXPECT_EQ(words[wi].owner, static_cast<ThreadId>(wi)) << "word " << wi;
    }
  }
  EXPECT_EQ(word_total, sampled);
}

TEST(CacheTracker, MultiThreadConservationLockFreeFullSampling) {
  run_conservation(1'000'000, 1'000'000);
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

// Virtual-line fan-out under concurrent nomination: readers iterate an
// immutable published snapshot, so a nomination during fan-out is simply
// picked up by the next sampled access.
TEST(CacheTracker, VirtualLineSnapshotGrowsUnderFanOut) {
  auto t = make_tracker();
  std::vector<std::unique_ptr<VirtualLineTracker>> vls;
  for (int i = 0; i < 4; ++i) {
    vls.push_back(std::make_unique<VirtualLineTracker>(
        kLineBase, 64, VirtualLineTracker::Kind::kShifted, 10, kLineBase,
        kLineBase + 56));
  }
  std::atomic<bool> stop{false};
  std::thread fanout([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      t.update_virtual_lines(kLineBase + 8, W, 1);
    }
  });
  for (auto& vl : vls) {
    t.add_virtual_line(vl.get());
  }
  stop.store(true, std::memory_order_relaxed);
  fanout.join();
  t.update_virtual_lines(kLineBase + 8, W, 2);
  for (auto& vl : vls) {
    EXPECT_GE(vl->accesses(), 1u);  // every nominated line sees the tail access
  }
}

TEST(CacheTracker, PredictionBeginsExactlyOnce) {
  auto t = make_tracker();
  EXPECT_TRUE(t.try_begin_prediction());
  EXPECT_FALSE(t.try_begin_prediction());
  EXPECT_FALSE(t.try_begin_prediction());
}

TEST(VirtualLineTracker, CountsInvalidationsLikePhysicalLines) {
  VirtualLineTracker vl(128, 64, VirtualLineTracker::Kind::kDoubleLine, 2,
                        128, 184);
  for (int i = 0; i < 100; ++i) {
    vl.access(130 + (i % 2) * 50, AccessType::kWrite,
              static_cast<ThreadId>(i % 2));
  }
  EXPECT_EQ(vl.invalidations(), 99u);
  EXPECT_EQ(vl.accesses(), 100u);
}

// ---------------------------------------------------------------------------
// Sync-aware suppression: the epoch/ownership word state machine
// ---------------------------------------------------------------------------

// Full-sampling arguments used by every suppression test.
constexpr std::uint64_t kWin = 10'000;
constexpr std::uint64_t kIval = 1'000'000;

TEST(SyncSuppression, FirstSyncedAccessInstallsThenHits) {
  auto t = make_tracker();
  // Fall-through installs the (tid, epoch) word; the hit then needs the
  // history automaton in the exact {tid, W} state, which the first write
  // establishes.
  auto first = t.handle_access(kLineBase, W, /*tid=*/3, kWin, kIval,
                               /*epoch=*/1);
  EXPECT_FALSE(first.suppressed);
  EXPECT_TRUE(first.sampled);
  auto second = t.handle_access(kLineBase, W, 3, kWin, kIval, 1);
  EXPECT_TRUE(second.suppressed);
  EXPECT_FALSE(second.sampled);
  // Reads by the exclusive writer are no-ops too and also suppress.
  auto read = t.handle_access(kLineBase + 8, R, 3, kWin, kIval, 1);
  EXPECT_TRUE(read.suppressed);
  EXPECT_EQ(t.suppressed_accesses(), 2u);
  EXPECT_EQ(t.sampled_accesses(), 1u);
  EXPECT_EQ(t.total_accesses(), 3u);  // sampled + suppressed, exact
}

TEST(SyncSuppression, EpochZeroNeverSuppresses) {
  auto t = make_tracker();
  // Epoch 0 means "this thread never synced": byte-for-byte the PR 3 path.
  for (int i = 0; i < 50; ++i) {
    auto out = t.handle_access(kLineBase, W, 0, kWin, kIval, /*epoch=*/0);
    EXPECT_FALSE(out.suppressed);
  }
  EXPECT_EQ(t.suppressed_accesses(), 0u);
  EXPECT_EQ(t.sampled_accesses(), 50u);
}

TEST(SyncSuppression, EpochLow16ZeroWrapsToNeverMatch) {
  auto t = make_tracker();
  // Epochs whose low 16 bits are zero pack to the reserved value: one
  // epoch per 65536 syncs falls back to the exact path — sound, never
  // wrong, and the next epoch suppresses again.
  t.handle_access(kLineBase, W, 0, kWin, kIval, 0x10000u);
  auto out = t.handle_access(kLineBase, W, 0, kWin, kIval, 0x10000u);
  EXPECT_FALSE(out.suppressed);
  t.handle_access(kLineBase, W, 0, kWin, kIval, 0x10001u);
  out = t.handle_access(kLineBase, W, 0, kWin, kIval, 0x10001u);
  EXPECT_TRUE(out.suppressed);
}

TEST(SyncSuppression, WideTidNeverSuppresses) {
  auto t = make_tracker();
  const ThreadId wide = static_cast<ThreadId>(0x800000u);  // > 23 bits
  t.handle_access(kLineBase, W, wide, kWin, kIval, 1);
  auto out = t.handle_access(kLineBase, W, wide, kWin, kIval, 1);
  EXPECT_FALSE(out.suppressed);
  EXPECT_EQ(t.suppressed_accesses(), 0u);
}

TEST(SyncSuppression, ForeignAccessBreaksOwnershipAndCostsNothingExact) {
  auto t = make_tracker();
  t.handle_access(kLineBase, W, 0, kWin, kIval, 1);
  ASSERT_TRUE(t.handle_access(kLineBase, W, 0, kWin, kIval, 1).suppressed);
  // Another thread's write: falls through (word/history mismatch), counts
  // the invalidation exactly as the unsuppressed automaton would.
  auto foreign = t.handle_access(kLineBase + 8, W, 1, kWin, kIval, 1);
  EXPECT_FALSE(foreign.suppressed);
  EXPECT_EQ(t.invalidations(), 1u);
  // The original owner now falls through too — its history state is gone —
  // and that fall-through is the second invalidation, not a miss.
  auto back = t.handle_access(kLineBase, W, 0, kWin, kIval, 1);
  EXPECT_FALSE(back.suppressed);
  EXPECT_EQ(t.invalidations(), 2u);
}

TEST(SyncSuppression, EpochRotationInvalidatesTheFastPath) {
  auto t = make_tracker();
  t.handle_access(kLineBase, W, 0, kWin, kIval, 1);
  ASSERT_TRUE(t.handle_access(kLineBase, W, 0, kWin, kIval, 1).suppressed);
  // After a sync the epoch moves: the stale word must not keep hitting.
  auto post_sync = t.handle_access(kLineBase, W, 0, kWin, kIval, 2);
  EXPECT_FALSE(post_sync.suppressed);
  // The fall-through re-installed the word at the new epoch.
  EXPECT_TRUE(t.handle_access(kLineBase, W, 0, kWin, kIval, 2).suppressed);
}

TEST(SyncSuppression, ClaimForHandoffTransfersOwnership) {
  auto t = make_tracker();
  t.handle_access(kLineBase, W, 0, kWin, kIval, 1);
  ASSERT_TRUE(t.handle_access(kLineBase, W, 0, kWin, kIval, 1).suppressed);
  // The receiver's claim is a synthetic first write: it invalidates (the
  // line changes owner) and pre-arms the receiver's fast path, standing in
  // for a first write the static pass may have pruned.
  EXPECT_TRUE(t.claim_for_handoff(/*tid=*/1, /*epoch=*/5));
  EXPECT_EQ(t.invalidations(), 1u);
  EXPECT_TRUE(t.handle_access(kLineBase + 8, W, 1, kWin, kIval, 5).suppressed);
  // A claim on an already-owned line is a no-op invalidation-wise.
  EXPECT_FALSE(t.claim_for_handoff(1, 6));
}

TEST(SyncSuppression, ResetForReuseClearsTheSyncWord) {
  auto t = make_tracker();
  t.handle_access(kLineBase, W, 0, kWin, kIval, 1);
  ASSERT_TRUE(t.handle_access(kLineBase, W, 0, kWin, kIval, 1).suppressed);
  t.reset_for_reuse();
  // Stale ownership from the previous tenant must not suppress.
  auto out = t.handle_access(kLineBase, W, 0, kWin, kIval, 1);
  EXPECT_FALSE(out.suppressed);
  EXPECT_EQ(t.suppressed_accesses(), 0u);
  EXPECT_EQ(t.total_accesses(), 1u);
}

TEST(SyncSuppression, InvalidationsIdenticalWithAndWithoutSuppression) {
  // One deterministic synced stream, replayed sequentially through both
  // signatures: suppression may drop sampled detail, but invalidation
  // counts and total accesses must be bit-identical.
  auto drive = [](bool with_epochs) {
    auto t = make_tracker();
    std::uint64_t epoch[2] = {1, 1};
    for (int round = 0; round < 6; ++round) {
      const ThreadId owner = static_cast<ThreadId>(round % 2);
      ++epoch[owner];
      t.claim_for_handoff(owner, static_cast<std::uint32_t>(epoch[owner]));
      for (int i = 0; i < 17; ++i) {
        const Address a = kLineBase + 8 * ((round + i) % 8);
        const AccessType ty = (i % 5 == 0) ? R : W;
        if (with_epochs) {
          t.handle_access(a, ty, owner, kWin, kIval,
                          static_cast<std::uint32_t>(epoch[owner]));
        } else {
          t.handle_access(a, ty, owner, kWin, kIval);
        }
      }
    }
    return std::pair<std::uint64_t, std::uint64_t>(t.invalidations(),
                                                   t.total_accesses());
  };
  const auto base = drive(false);
  const auto sync = drive(true);
  EXPECT_EQ(base.first, sync.first);    // invalidations
  EXPECT_EQ(base.second, sync.second);  // total accesses
}

TEST(SyncSuppression, ConcurrentHandoffTenuresConserveCounts) {
  // TSan-facing: rotating tenures with racing claims; every delivered
  // access must be either sampled or suppressed, never both or neither.
  auto t = std::make_unique<CacheTracker>(10, kGeo);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kTenures = 200;
  constexpr std::uint64_t kBurst = 32;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&t, id] {
      for (std::uint64_t r = 0; r < kTenures; ++r) {
        const auto epoch = static_cast<std::uint32_t>(r + 1);
        t->claim_for_handoff(static_cast<ThreadId>(id), epoch);
        for (std::uint64_t i = 0; i < kBurst; ++i) {
          t->handle_access(kLineBase + 8 * (id % 8), W,
                           static_cast<ThreadId>(id), kWin, kIval, epoch);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t total = kThreads * kTenures * kBurst;
  EXPECT_EQ(t->sampled_accesses() + t->suppressed_accesses(), total);
  EXPECT_EQ(t->total_accesses(), total);
}

TEST(VirtualLineTracker, IgnoresOutOfRange) {
  VirtualLineTracker vl(128, 64, VirtualLineTracker::Kind::kShifted, 2, 128,
                        184);
  vl.access(127, W, 0);
  vl.access(192, W, 1);
  EXPECT_EQ(vl.accesses(), 0u);
  vl.access(128, R, 0);
  vl.access(191, R, 1);
  EXPECT_EQ(vl.accesses(), 2u);
}

}  // namespace
}  // namespace pred
