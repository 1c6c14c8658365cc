// Edge cases and failure-injection across layers: exhaustion paths, odd
// attribution layouts, dead-object reporting, and live-mode smoke coverage
// of the workload suite.
#include <gtest/gtest.h>

#include "api/predator.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

TEST(EdgeCases, AllocatorExhaustionReturnsNull) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  PredatorAllocator alloc(rt, 256 * 1024);  // deliberately tiny heap
  // Large allocations bypass size classes and drain the region directly.
  int succeeded = 0;
  for (int i = 0; i < 64; ++i) {
    if (alloc.allocate(32 * 1024, {"x.c:1"}) != nullptr) ++succeeded;
  }
  EXPECT_GT(succeeded, 4);
  EXPECT_LT(succeeded, 9);
  EXPECT_EQ(alloc.allocate(32 * 1024, {"x.c:2"}), nullptr);
  // Small allocations also eventually fail rather than corrupt.
  void* last = nullptr;
  for (int i = 0; i < 100000; ++i) {
    last = alloc.allocate(64, {"x.c:3"});
    if (last == nullptr) break;
  }
  EXPECT_EQ(last, nullptr);
}

TEST(EdgeCases, ZeroByteAllocationIsUsable) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  PredatorAllocator alloc(rt, 1024 * 1024);
  void* p = alloc.allocate(0, {"zero.c:1"});
  ASSERT_NE(p, nullptr);
  alloc.deallocate(p);
}

TEST(EdgeCases, DoubleFreeIsIgnored) {
  RuntimeConfig cfg;
  Runtime rt(cfg);
  PredatorAllocator alloc(rt, 1024 * 1024);
  void* p = alloc.allocate(64, {"df.c:1"});
  alloc.deallocate(p);
  alloc.deallocate(p);  // record is gone: must be a no-op
  alloc.deallocate(reinterpret_cast<void*>(
      reinterpret_cast<Address>(p) + 4));  // interior pointer: no-op
}

TEST(EdgeCases, TwoObjectsOnOneLineAttributeToTheHotterOne) {
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 2;
  o.runtime.report_invalidation_threshold = 20;
  Session s(o);
  // Two 16-byte objects share a line (same thread allocates both).
  auto* a = static_cast<long*>(s.alloc(16, s.intern_frames({"small.c:first"})));
  auto* b = static_cast<long*>(s.alloc(16, s.intern_frames({"small.c:second"})));
  ASSERT_EQ(reinterpret_cast<Address>(a) / 64,
            reinterpret_cast<Address>(b) / 64);
  // Object b carries nearly all the traffic (two threads, false sharing).
  for (int i = 0; i < 300; ++i) {
    s.record(&b[0], AccessType::kWrite, 0, 8);
    s.record(&b[1], AccessType::kWrite, 1, 8);
  }
  s.record(&a[0], AccessType::kWrite, 0, 8);
  const Report rep = s.report();
  ASSERT_EQ(rep.findings.size(), 1u);
  ASSERT_NE(rep.findings[0].object.callsite, kNoCallsite);
  const auto& frames =
      s.runtime().callsites().get(rep.findings[0].object.callsite).frames;
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "small.c:second");
}

TEST(EdgeCases, FreedFalselySharedObjectStillReported) {
  // The reuse rule's purpose: the report survives the object's free.
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 2;
  o.runtime.report_invalidation_threshold = 20;
  Session s(o);
  auto* p = static_cast<long*>(s.alloc(64, s.intern_frames({"freed.c:42"})));
  for (int i = 0; i < 200; ++i) {
    s.record(&p[0], AccessType::kWrite, 0, 8);
    s.record(&p[1], AccessType::kWrite, 1, 8);
  }
  s.free(p);
  const Report rep = s.report();
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_FALSE(rep.findings[0].object.live);
  const std::string text = s.report_text();
  EXPECT_NE(text.find("freed.c:42"), std::string::npos);
}

TEST(EdgeCases, AccessSizeZeroTreatedAsOneByte) {
  SessionOptions o;
  o.heap_size = 4 * 1024 * 1024;
  o.runtime.tracking_threshold = 2;
  Session s(o);
  auto* p = static_cast<char*>(s.alloc(64, s.intern_frames({"sz.c:1"})));
  for (int i = 0; i < 10; ++i) s.record(p, AccessType::kWrite, 0, 0);  // size 0: no crash
  auto& shadow = s.allocator().shadow();
  CacheTracker* t =
      shadow.tracker(shadow.line_index(reinterpret_cast<Address>(p)));
  ASSERT_NE(t, nullptr);
}

TEST(EdgeCases, WideThreadIdIsCountedNotAborted) {
  // The history table packs 30-bit thread ids. A wider id's tracked
  // accesses and handoff claims are counted and kept out of every history
  // table instead of aborting the run.
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 4;
  o.runtime.set_sampling_rate(1.0);
  Session session(o);
  auto* data = static_cast<long*>(
      session.alloc(64, session.intern_frames({"wide.c:1"})));
  const ThreadId wide = ThreadId{1} << 30;
  for (int i = 0; i < 1000; ++i) {
    session.record(&data[0], AccessType::kWrite, 0, 8);
    session.record(&data[1], AccessType::kWrite, wide, 8);
  }
  session.handoff(data, 8, wide);
  // The 4th write (the wide thread's 2nd) escalates; its 998 later writes
  // and the claim reach the tracked path and are dropped there.
  EXPECT_EQ(session.runtime().wide_tid_accesses(), 999u);
  auto& shadow = session.allocator().shadow();
  const CacheTracker* track =
      shadow.tracker(shadow.line_index(reinterpret_cast<Address>(data)));
  ASSERT_NE(track, nullptr);
  EXPECT_EQ(track->invalidations(), 0u);  // only thread 0 reached it
  const std::string text = session.report_text();
  EXPECT_NE(text.find("Wide thread ids: 999 tracked accesses ignored"),
            std::string::npos)
      << text;
}

TEST(EdgeCases, ReportThresholdZeroReportsEverythingTouchedByConflict) {
  SessionOptions o;
  o.heap_size = 4 * 1024 * 1024;
  o.runtime.tracking_threshold = 2;
  o.runtime.report_invalidation_threshold = 0;
  Session s(o);
  auto* p = static_cast<long*>(s.alloc(64, s.intern_frames({"t0.c:1"})));
  for (int i = 0; i < 5; ++i) s.record(&p[0], AccessType::kWrite, 0, 8);
  // Even a never-invalidated line passes a zero threshold.
  EXPECT_FALSE(s.report().findings.empty());
}

// Live-mode smoke over representative workloads: the real-thread execution
// path (used by the overhead/memory figures) must run cleanly for every
// suite, including the racy real-app kernels.
class LiveSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(LiveSmoke, RunsWithRealThreads) {
  const wl::Workload* w = wl::find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  SessionOptions o;
  o.heap_size = 32 * 1024 * 1024;
  Session session(o);
  wl::Params p;
  p.threads = 4;
  const wl::Result live = w->run_live(session, p);
  (void)live;
  // The session saw traffic and reporting works.
  EXPECT_GT(session.allocator().live_bytes(), 0u);
  (void)session.report_text();
}

INSTANTIATE_TEST_SUITE_P(Representative, LiveSmoke,
                         ::testing::Values("histogram", "linear_regression",
                                           "streamcluster", "mysql", "boost",
                                           "memcached", "pbzip2",
                                           "blackscholes"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pred
