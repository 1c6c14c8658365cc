// Live-monitor tests: a snapshot reports exactly the trackers' state (every
// tracked line, its counts, the totals and the virtual lines), agrees with
// the final report, sees accesses made before any start(), flushes the
// calling thread's staged counters, and stays race-free while mutators
// escalate lines and nominate virtual lines under it (the test_stress.cpp
// discipline: invariants, not exact counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

constexpr auto W = AccessType::kWrite;

// Deterministic sessions: every access sampled, no prediction.
SessionOptions deterministic_options() {
  SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  o.runtime.tracking_threshold = 4;
  o.runtime.prediction_threshold = 1 << 30;
  o.runtime.report_invalidation_threshold = 1;
  o.runtime.prediction_enabled = false;
  o.runtime.set_sampling_rate(1.0);
  return o;
}

const CacheTracker* tracker_of(const Session& session, const void* p) {
  const Address a = reinterpret_cast<Address>(p);
  const ShadowSpace* region = session.runtime().find_region(a);
  return region != nullptr ? region->tracker(region->line_index(a)) : nullptr;
}

TEST(Monitor, SnapshotMatchesFinalReport) {
  Session session(deterministic_options());

  // Two logical threads ping-pong writes on one line: textbook false
  // sharing, every post-escalation write sampled, every sampled write after
  // the first an invalidation.
  auto* obj = static_cast<long*>(session.alloc(64, session.intern_frames({"monitor.c:ping_pong"})));
  for (int i = 0; i < 200; ++i) {
    session.record(&obj[(i % 2) * 2], W, static_cast<ThreadId>(i % 2), 8);
  }

  const MonitorSnapshot mid = session.monitor().snapshot();
  for (int i = 200; i < 400; ++i) {
    session.record(&obj[(i % 2) * 2], W, static_cast<ThreadId>(i % 2), 8);
  }
  const MonitorSnapshot fin = session.monitor().snapshot();

  ASSERT_EQ(fin.top_lines.size(), 1u);

  // The snapshot's per-line telemetry must agree with the authoritative
  // tracker state for every line escalated at snapshot time...
  const ShadowSpace* region =
      session.runtime().find_region(reinterpret_cast<Address>(obj));
  ASSERT_NE(region, nullptr);
  const CacheTracker* tracker = tracker_of(session, obj);
  ASSERT_NE(tracker, nullptr);
  const MonitorSnapshot::LineEntry& line = fin.top_lines[0];
  EXPECT_TRUE(line.escalated);
  EXPECT_EQ(line.line_start,
            region->line_start(
                region->line_index(reinterpret_cast<Address>(obj))));
  EXPECT_EQ(line.invalidations, tracker->invalidations());
  EXPECT_EQ(line.samples, tracker->sampled_accesses());
  EXPECT_EQ(line.sample_writes, tracker->sampled_writes());

  // ...and with the final report built from that state.
  const Report report = session.report();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.total_invalidations, fin.invalidations);
  ASSERT_EQ(report.findings[0].lines.size(), 1u);
  EXPECT_EQ(report.findings[0].lines[0].invalidations, line.invalidations);
  EXPECT_EQ(report.findings[0].lines[0].sampled_accesses, line.samples);

  // The mid-run snapshot is a prefix: counts only grow.
  ASSERT_EQ(mid.top_lines.size(), 1u);
  EXPECT_EQ(mid.top_lines[0].line_start, line.line_start);
  EXPECT_LT(mid.top_lines[0].invalidations, line.invalidations);
  EXPECT_LT(mid.top_lines[0].samples, line.samples);
  EXPECT_LT(mid.sequence, fin.sequence);

  // Attribution resolved to the allocation callsite.
  EXPECT_TRUE(line.attributed);
  EXPECT_EQ(line.label, "monitor.c:ping_pong");
}

TEST(Monitor, SnapshotSeesAccessesMadeBeforeAnyStart) {
  // start() is never called: the snapshot reads the trackers, which count
  // from the first access.
  Session session(deterministic_options());
  auto* obj = static_cast<long*>(
      session.alloc(64, session.intern_frames({"monitor.c:no_start"})));
  for (int i = 0; i < 100; ++i) {
    session.record(&obj[(i % 2) * 2], W, static_cast<ThreadId>(i % 2), 8);
  }
  const MonitorSnapshot snap = session.monitor().snapshot();

  const CacheTracker* tracker = tracker_of(session, obj);
  ASSERT_NE(tracker, nullptr);
  ASSERT_GT(tracker->invalidations(), 0u);
  ASSERT_EQ(snap.top_lines.size(), 1u);
  EXPECT_EQ(snap.escalations, 1u);
  EXPECT_EQ(snap.top_lines[0].invalidations, tracker->invalidations());
  EXPECT_EQ(snap.top_lines[0].samples, tracker->sampled_accesses());
  EXPECT_EQ(snap.top_lines[0].sample_writes, tracker->sampled_writes());
  EXPECT_EQ(snap.invalidations, tracker->invalidations());
  EXPECT_EQ(snap.samples, tracker->sampled_accesses());
}

TEST(Monitor, SnapshotEqualsTrackerStateForEveryLine) {
  std::uint64_t predicted_lines = 0, virtual_lines = 0;
  for (const char* name : {"linear_regression", "histogram", "mysql"}) {
    SCOPED_TRACE(name);
    const wl::Workload* w = wl::find_workload(name);
    ASSERT_NE(w, nullptr);
    SessionOptions o;
    o.heap_size = 32 * 1024 * 1024;
    o.monitor.top_k = std::size_t{1} << 20;  // above any line count here
    ASSERT_TRUE(o.runtime.prediction_enabled);
    Session session(o);
    wl::Params p;
    p.threads = 8;
    w->run_replay(session, p);
    const MonitorSnapshot snap = session.monitor().snapshot();

    std::map<Address, const CacheTracker*> trackers;
    session.runtime().for_each_region([&](const ShadowSpace& region) {
      region.for_each_tracker([&](std::size_t idx, const CacheTracker* t) {
        trackers.emplace(region.line_start(idx), t);
      });
    });
    ASSERT_FALSE(trackers.empty());
    EXPECT_EQ(snap.escalations, trackers.size());
    EXPECT_EQ(snap.lines_tracked, trackers.size());
    ASSERT_EQ(snap.top_lines.size(), trackers.size());

    // Every tracked line appears once, with its tracker's counts.
    std::set<Address> seen;
    std::uint64_t inv = 0, samples = 0, predictions = 0;
    for (const MonitorSnapshot::LineEntry& le : snap.top_lines) {
      EXPECT_TRUE(seen.insert(le.line_start).second) << le.line_start;
      const auto it = trackers.find(le.line_start);
      ASSERT_NE(it, trackers.end()) << le.line_start;
      const CacheTracker& t = *it->second;
      EXPECT_TRUE(le.escalated);
      EXPECT_EQ(le.invalidations, t.invalidations());
      EXPECT_EQ(le.samples, t.sampled_accesses());
      EXPECT_EQ(le.sample_writes, t.sampled_writes());
      EXPECT_EQ(le.predictions, t.prediction_decided() ? 1u : 0u);
      inv += le.invalidations;
      samples += le.samples;
      predictions += le.predictions;
    }
    // Ranked by invalidations, then samples, then address.
    EXPECT_TRUE(std::is_sorted(
        snap.top_lines.begin(), snap.top_lines.end(),
        [](const MonitorSnapshot::LineEntry& a,
           const MonitorSnapshot::LineEntry& b) {
          if (a.invalidations != b.invalidations) {
            return a.invalidations > b.invalidations;
          }
          if (a.samples != b.samples) return a.samples > b.samples;
          return a.line_start < b.line_start;
        }));

    // The totals are the sums; the counters nothing sheds read as lossless.
    EXPECT_EQ(snap.invalidations, inv);
    EXPECT_EQ(snap.samples, samples);
    EXPECT_EQ(snap.predictions, predictions);
    EXPECT_EQ(snap.virtual_lines, session.runtime().virtual_lines().size());
    EXPECT_EQ(snap.events_seen, snap.escalations + snap.samples +
                                    snap.predictions + snap.virtual_lines);
    EXPECT_EQ(snap.events_dropped, 0u);
    EXPECT_TRUE(snap.rings.empty());
    EXPECT_EQ(snap.invalidations, session.report().total_invalidations);

    // The callsite rollup covers exactly the attributed lines.
    std::uint64_t attributed_inv = 0, site_inv = 0;
    std::size_t attributed_lines = 0, site_lines = 0;
    for (const auto& le : snap.top_lines) {
      if (!le.attributed) continue;
      attributed_inv += le.invalidations;
      ++attributed_lines;
    }
    for (const auto& ce : snap.callsites) {
      site_inv += ce.invalidations;
      site_lines += ce.lines;
    }
    EXPECT_EQ(site_inv, attributed_inv);
    EXPECT_EQ(site_lines, attributed_lines);
    predicted_lines += snap.predictions;
    virtual_lines += snap.virtual_lines;
  }
  // The prediction terms were exercised, not just zero on both sides.
  EXPECT_GT(predicted_lines, 0u);
  EXPECT_GT(virtual_lines, 0u);
}

TEST(Monitor, SnapshotFlushesStagedCounters) {
  // snapshot() publishes the calling thread's staged write counters
  // exactly like report() does.
  SessionOptions o;
  o.heap_size = 16 * 1024 * 1024;
  o.runtime.tracking_threshold = 1 << 20;  // never escalate: stay staged
  o.runtime.prediction_threshold = 1 << 30;
  Session session(o);

  auto* obj = static_cast<long*>(session.alloc(64, session.intern_frames({"monitor.c:staged"})));
  const ShadowSpace* region =
      session.runtime().find_region(reinterpret_cast<Address>(obj));
  ASSERT_NE(region, nullptr);
  const std::size_t line =
      region->line_index(reinterpret_cast<Address>(obj));

  {
    ScopedThread guard(session, 0);
    for (int i = 0; i < 3; ++i) session.record(obj, W, 0, 8);
    // Still staged thread-locally: the shared counter has not moved.
    EXPECT_EQ(region->writes_count(line), 0u);
    (void)session.monitor().snapshot();
    EXPECT_EQ(region->writes_count(line), 3u);
  }
}

TEST(Monitor, SnapshotsRaceFreeUnderMutators) {
  // The swept lines are a region of their own with no object on it, so the
  // predictor's whole-object adjustment does not walk them all per
  // nomination. Declared before the session, which never unregisters it.
  constexpr std::size_t kLines = 4096;
  struct alignas(64) Line {
    long words[8];
  };
  std::vector<Line> lines(kLines + 1);
  SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  o.runtime.tracking_threshold = 4;
  o.runtime.prediction_threshold = 64;
  o.runtime.report_invalidation_threshold = 1;
  o.runtime.set_sampling_rate(1.0);
  ASSERT_TRUE(o.runtime.prediction_enabled);
  Session session(o);

  // The mutators sweep a window across the lines: at each step thread t
  // writes word 6 + t of the window (words 6 and 7 of line L, words 0 and
  // 1 of line L + 1), so lines keep escalating and, once a line's writes
  // cross the prediction threshold, the predictor pairs hot words across
  // the line boundary and nominates virtual lines, all while the main
  // thread walks the trackers.
  constexpr int kThreads = 4;
  ASSERT_NE(session.runtime().register_region(
                reinterpret_cast<Address>(lines.data()),
                lines.size() * sizeof(Line)),
            nullptr);
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < kThreads; ++t) {
    mutators.emplace_back([&, t] {
      ScopedThread guard(session, static_cast<ThreadId>(t));
      for (std::uint64_t step = 0; !stop.load(std::memory_order_acquire);
           ++step) {
        const std::size_t line = (step / 64) % kLines;
        session.record(&lines[line].words[6] + t, W,
                       static_cast<ThreadId>(t), 8);
        if ((step & 1023) == 0) std::this_thread::yield();
      }
    });
  }

  // Under load the mutators' windows can drift apart and pair no hot words
  // for a while, so they sweep until the predictor has nominated a virtual
  // line (within a deadline that fails the test); the snapshots below then
  // race both escalations and nominations.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool nominated = false;
  while (!nominated && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const MonitorSnapshot snap = session.monitor().snapshot();
    nominated = snap.predictions > 0 && snap.virtual_lines > 0;
  }
  EXPECT_TRUE(nominated) << "no virtual line nominated within 60 s";

  MonitorSnapshot last;
  for (int round = 0; round < 40; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const MonitorSnapshot snap = session.monitor().snapshot();
    EXPECT_GT(snap.sequence, last.sequence);
    // Trackers are never removed and nothing is freed here, so every
    // count only grows.
    EXPECT_GE(snap.escalations, last.escalations);
    EXPECT_GE(snap.invalidations, last.invalidations);
    EXPECT_GE(snap.samples, last.samples);
    EXPECT_GE(snap.predictions, last.predictions);
    EXPECT_GE(snap.virtual_lines, last.virtual_lines);
    EXPECT_EQ(snap.lines_tracked, snap.escalations);
    EXPECT_EQ(snap.events_seen, snap.escalations + snap.samples +
                                    snap.predictions + snap.virtual_lines);
    EXPECT_LE(snap.top_lines.size(), o.monitor.top_k);
    last = snap;
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : mutators) th.join();

  const MonitorSnapshot fin = session.monitor().snapshot();
  EXPECT_GT(fin.samples, 0u);
  EXPECT_GT(fin.predictions, 0u);
  EXPECT_GT(fin.virtual_lines, 0u);
  EXPECT_FALSE(fin.top_lines.empty());
  EXPECT_EQ(fin.virtual_lines, session.runtime().virtual_lines().size());
  // Reading never perturbs the authoritative detector state: the report
  // built from it sees the same totals.
  const Report report = session.report();
  EXPECT_GT(report.total_invalidations, 0u);
  EXPECT_EQ(report.total_invalidations, fin.invalidations);
}

}  // namespace
}  // namespace pred
