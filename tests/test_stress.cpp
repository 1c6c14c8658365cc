// Whole-system concurrency stress: real threads exercising allocation,
// instrumented accesses, prediction, recycling, and reporting all at once.
// The assertions are invariants (no crashes, no lost accounting, sane
// reports), not exact counts — the point is to shake out races between the
// runtime's atomics, the allocator's heaps, and the predictor's nomination
// path.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/predator.hpp"
#include "common/prng.hpp"

namespace pred {
namespace {

SessionOptions stress_options() {
  SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  o.runtime.tracking_threshold = 4;
  o.runtime.prediction_threshold = 64;
  o.runtime.report_invalidation_threshold = 20;
  return o;
}

TEST(Stress, MixedAllocAccessFreeAcrossThreads) {
  Session session(stress_options());
  constexpr int kThreads = 6;
  constexpr int kSteps = 4000;
  std::atomic<std::uint64_t> accesses{0};

  // One shared hot object so prediction and invalidation tracking fire
  // while private churn happens around them.
  auto* shared = static_cast<long*>(
      session.alloc(64, session.intern_frames({"stress.c:shared"})));
  for (int i = 0; i < 8; ++i) shared[i] = 0;

  // Hot allocation path: intern the callsite once, outside the threads.
  const CallsiteId cs_private = session.intern_frames({"stress.c:private"});

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto tid = static_cast<ThreadId>(t);
      Xorshift64 rng(0xabcd + t);
      std::vector<void*> mine;
      for (int step = 0; step < kSteps; ++step) {
        switch (rng.next_below(4)) {
          case 0: {  // allocate and touch
            void* p = session.alloc(8 + rng.next_below(500), cs_private);
            ASSERT_NE(p, nullptr);
            session.record(p, AccessType::kWrite, tid, 8);
            *static_cast<long*>(p) = step;
            mine.push_back(p);
            break;
          }
          case 1: {  // free something of ours
            if (!mine.empty()) {
              session.free(mine.back());
              mine.pop_back();
            }
            break;
          }
          case 2: {  // hammer our private slot of the shared object
            session.record(&shared[t], AccessType::kRead, tid, 8);
            session.record(&shared[t], AccessType::kWrite, tid, 8);
            shared[t] += 1;
            accesses.fetch_add(2, std::memory_order_relaxed);
            break;
          }
          default: {  // read a neighbor's slot (read-write sharing)
            session.record(&shared[(t + 1) % kThreads], AccessType::kRead, tid, 8);
            accesses.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
      for (void* p : mine) session.free(p);
    });
  }
  for (auto& th : threads) th.join();

  // Invariants: live accounting balances (only the shared object remains),
  // the report builds without issue, and the shared line was seen.
  EXPECT_EQ(session.allocator().live_bytes(), 64u);
  const Report rep = session.report();
  auto& shadow = session.allocator().shadow();
  CacheTracker* t =
      shadow.tracker(shadow.line_index(reinterpret_cast<Address>(shared)));
  ASSERT_NE(t, nullptr);
  EXPECT_GT(t->total_accesses(), accesses.load() / 4);
  // No finding may reference freed-and-recycled private churn: every
  // reported object is either the shared one or a dead-but-kept record.
  for (const auto& f : rep.findings) {
    if (!f.attributed) continue;
    if (f.object.start == reinterpret_cast<Address>(shared)) continue;
    EXPECT_FALSE(f.object.live)
        << "recycled object leaked into the report";
  }
}

TEST(Stress, ManySessionsSequentially) {
  // Session setup/teardown leaks nothing structural: run several complete
  // detector lifecycles back to back.
  for (int round = 0; round < 8; ++round) {
    Session session(stress_options());
    auto* data = static_cast<long*>(session.alloc(64, session.intern_frames({"cycle.c:1"})));
    for (int i = 0; i < 200; ++i) {
      session.record(&data[0], AccessType::kWrite, 0, 8);
      session.record(&data[1], AccessType::kWrite, 1, 8);
    }
    const Report rep = session.report();
    ASSERT_EQ(rep.findings.size(), 1u) << "round " << round;
    EXPECT_EQ(rep.findings[0].kind, SharingKind::kFalseSharing);
  }
}

TEST(Stress, ParallelReportingWhileMutating) {
  // build_report must be safe to run concurrently with ongoing accesses
  // (it snapshots under per-tracker locks).
  Session session(stress_options());
  // The backing stores race on purpose (that is the sharing pattern under
  // test); keep them relaxed atomics so the *workload* itself is
  // well-defined C++ and the suite stays ThreadSanitizer-clean.
  auto* data =
      static_cast<std::atomic<long>*>(session.alloc(128, session.intern_frames({"live.c:1"})));
  std::atomic<bool> stop{false};

  std::thread mutator([&] {
    ThreadId tid = session.register_thread();
    Xorshift64 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t w = rng.next_below(16);
      session.record(&data[w], AccessType::kWrite, tid, 8);
      data[w].fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread mutator2([&] {
    ThreadId tid = session.register_thread();
    while (!stop.load(std::memory_order_relaxed)) {
      session.record(&data[0], AccessType::kWrite, tid, 8);
      data[0].fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int i = 0; i < 50; ++i) {
    const Report rep = session.report();
    (void)rep.total_invalidations;
    const std::string text = session.report_text();
    EXPECT_FALSE(text.empty());
  }
  stop.store(true);
  mutator.join();
  mutator2.join();
}

// A report built mid-run while the prediction hook nominates virtual lines:
// build_report must read the runtime's virtual lines without racing the
// nominations that append to them.
TEST(Stress, ReportingWhileNominatingVirtualLines) {
  alignas(64) static std::uint8_t buffer[64 * 64];
  const Address base = reinterpret_cast<Address>(buffer);
  Runtime rt;
  ShadowSpace* region = rt.register_region(base, sizeof(buffer));
  ASSERT_NE(region, nullptr);
  constexpr int kNominations = 2000;
  std::atomic<bool> reporting{false};
  std::atomic<bool> done{false};

  std::thread nominator([&] {
    while (!reporting.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kNominations; ++i) {
      const Address start = base + (i % 63) * 64 + (i % 8) * 8;
      rt.add_virtual_line(*region, start, 64,
                          VirtualLineTracker::Kind::kShifted, start,
                          start + 56);
    }
    done.store(true, std::memory_order_release);
  });
  do {
    reporting.store(true, std::memory_order_release);
    const Report rep = build_report(rt);
    EXPECT_TRUE(rep.findings.empty());  // nothing was accessed
  } while (!done.load(std::memory_order_acquire));
  nominator.join();
  EXPECT_EQ(rt.virtual_lines().size(), std::size_t{kNominations});
}

}  // namespace
}  // namespace pred
