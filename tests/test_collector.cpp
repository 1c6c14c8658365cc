// Tests for the fleet merge algebra (monitor/snapshot_merge.hpp) and the
// Collector (src/collect/):
//
//   - algebra laws: the join is commutative, associative, and idempotent
//     over randomized snapshot sets, so any delivery order / merge tree /
//     redelivery converges to one state;
//   - per-(client, line) retention when a line falls out of a client's
//     top-K between snapshots;
//   - drop reconciliation: a real session's snapshots shed nothing, so the
//     rollup's [exact, exact+dropped] bounds collapse onto the report's
//     total (synthetic drops are charged in MergeAlgebra);
//   - oracle agreement: frames ingested in any order, or concurrently by
//     64 simulated clients on 8 threads, leave the collector in exactly
//     the state of a sequential FleetState fold;
//   - transports: loopback sink and corrupt-frame rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "monitor/snapshot_merge.hpp"
#include "trace/snapshot_codec.hpp"

namespace pred {
namespace {

// Deterministic snapshot generator: per client, a cumulative series with
// overlapping lines/sites across clients.
MonitorSnapshot synth_snapshot(std::mt19937_64& rng, std::uint64_t sequence) {
  MonitorSnapshot s;
  s.sequence = sequence;
  s.events_seen = sequence * 1000 + rng() % 100;
  s.escalations = rng() % 8;
  s.invalidations = sequence * 50 + rng() % 50;
  s.samples = s.invalidations * 2;
  s.predictions = rng() % 4;
  s.virtual_lines = rng() % 6;
  s.lines_tracked = 1 + rng() % 6;

  const std::size_t lines = 1 + rng() % 5;
  for (std::size_t i = 0; i < lines; ++i) {
    MonitorSnapshot::LineEntry le;
    le.line_start = 0x4000000000ull + 64 * (rng() % 12);
    le.invalidations = rng() % 1000;
    le.samples = le.invalidations + rng() % 100;
    le.sample_writes = le.samples / 2;
    le.escalated = rng() % 2 == 0;
    le.attributed = true;
    le.callsite = static_cast<CallsiteId>(1 + rng() % 3);
    le.label = "app.c:" + std::to_string(10 + rng() % 3);
    s.top_lines.push_back(le);
  }
  const std::size_t sites = 1 + rng() % 3;
  for (std::size_t i = 0; i < sites; ++i) {
    MonitorSnapshot::CallsiteEntry ce;
    ce.callsite = static_cast<CallsiteId>(1 + rng() % 3);
    ce.label = "app.c:" + std::to_string(10 + rng() % 3);
    ce.invalidations = rng() % 1000;
    ce.samples = ce.invalidations * 2;
    ce.lines = 1 + rng() % 4;
    s.callsites.push_back(ce);
  }
  return s;
}

struct Delivery {
  std::uint64_t uid;
  std::uint64_t pid;
  MonitorSnapshot snap;
};

std::vector<Delivery> synth_fleet(std::uint64_t seed, std::size_t clients,
                                  std::size_t snaps_per_client) {
  std::mt19937_64 rng(seed);
  std::vector<Delivery> out;
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t n = 1; n <= snaps_per_client; ++n) {
      out.push_back({100 + c, 5000 + c, synth_snapshot(rng, n)});
    }
  }
  return out;
}

FleetState fold(const std::vector<Delivery>& deliveries) {
  FleetState state;
  for (const Delivery& d : deliveries) state.absorb(d.uid, d.pid, d.snap);
  return state;
}

TEST(MergeAlgebra, JoinIsCommutative) {
  const std::vector<Delivery> deliveries = synth_fleet(1, 6, 5);
  const FleetState in_order = fold(deliveries);

  std::vector<Delivery> shuffled = deliveries;
  std::mt19937_64 rng(99);
  for (int round = 0; round < 10; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_TRUE(fold(shuffled) == in_order) << "round " << round;
  }
}

TEST(MergeAlgebra, JoinIsAssociative) {
  const std::vector<Delivery> deliveries = synth_fleet(2, 6, 4);
  const FleetState flat = fold(deliveries);

  // Every split point: (prefix) merge (suffix) must equal the flat fold —
  // sub-collectors merging into a root see the same state as one flat
  // collector.
  for (std::size_t cut = 0; cut <= deliveries.size(); cut += 3) {
    FleetState left = fold({deliveries.begin(), deliveries.begin() + cut});
    const FleetState right =
        fold({deliveries.begin() + cut, deliveries.end()});
    left.merge(right);
    EXPECT_TRUE(left == flat) << "cut " << cut;
  }

  // A deeper tree: pairwise merge of four quarters.
  const std::size_t q = deliveries.size() / 4;
  FleetState q1 = fold({deliveries.begin(), deliveries.begin() + q});
  const FleetState q2 =
      fold({deliveries.begin() + q, deliveries.begin() + 2 * q});
  FleetState q3 =
      fold({deliveries.begin() + 2 * q, deliveries.begin() + 3 * q});
  const FleetState q4 = fold({deliveries.begin() + 3 * q, deliveries.end()});
  q1.merge(q2);
  q3.merge(q4);
  q1.merge(q3);
  EXPECT_TRUE(q1 == flat);
}

TEST(MergeAlgebra, JoinIsIdempotent) {
  const std::vector<Delivery> deliveries = synth_fleet(3, 5, 4);
  const FleetState once = fold(deliveries);

  // Redelivery: every frame absorbed twice.
  FleetState twice;
  for (const Delivery& d : deliveries) {
    twice.absorb(d.uid, d.pid, d.snap);
    twice.absorb(d.uid, d.pid, d.snap);
  }
  EXPECT_TRUE(twice == once);

  // Self-merge.
  FleetState self = fold(deliveries);
  self.merge(once);
  EXPECT_TRUE(self == once);

  // Empty is the identity.
  FleetState plus_empty = fold(deliveries);
  plus_empty.merge(FleetState{});
  EXPECT_TRUE(plus_empty == once);
  FleetState from_empty;
  from_empty.merge(once);
  EXPECT_TRUE(from_empty == once);
}

TEST(MergeAlgebra, RetainsLinesThatFellOutOfTopK) {
  std::mt19937_64 rng(4);
  MonitorSnapshot first = synth_snapshot(rng, 1);
  first.top_lines.resize(1);
  first.top_lines[0].line_start = 0x4000000040;
  first.top_lines[0].invalidations = 500;

  // The next cumulative snapshot no longer mentions that line (another got
  // hotter and pushed it out of top-K).
  MonitorSnapshot second = synth_snapshot(rng, 2);
  second.top_lines.resize(1);
  second.top_lines[0].line_start = 0x4000000080;
  second.top_lines[0].invalidations = 9000;

  FleetState state;
  state.absorb(1, 1, first);
  state.absorb(1, 1, second);
  const FleetRollup rollup = state.rollup(16);
  ASSERT_EQ(rollup.top_lines.size(), 2u);
  // Monotone counters: the stale entry remains a valid lower bound.
  EXPECT_EQ(rollup.top_lines[0].line_start, 0x4000000080u);
  EXPECT_EQ(rollup.top_lines[0].invalidations, 9000u);
  EXPECT_EQ(rollup.top_lines[1].line_start, 0x4000000040u);
  EXPECT_EQ(rollup.top_lines[1].invalidations, 500u);
}

TEST(MergeAlgebra, StaleRedeliveryDoesNotRegressState) {
  std::mt19937_64 rng(5);
  const MonitorSnapshot old_snap = synth_snapshot(rng, 3);
  const MonitorSnapshot new_snap = synth_snapshot(rng, 9);

  FleetState state;
  state.absorb(7, 7, old_snap);
  state.absorb(7, 7, new_snap);
  FleetState expect = state;
  state.absorb(7, 7, old_snap);  // late duplicate of the old frame
  EXPECT_TRUE(state == expect);
  EXPECT_EQ(state.rollup(4).events_seen, new_snap.events_seen);
}

TEST(MergeAlgebra, RollupSumsClientCounts) {
  MonitorSnapshot a;
  a.sequence = 1;
  a.invalidations = 100;
  a.samples = 200;
  MonitorSnapshot::LineEntry le;
  le.line_start = 0x40;
  le.invalidations = 100;
  le.samples = 200;
  a.top_lines.push_back(le);

  MonitorSnapshot b;
  b.sequence = 1;
  b.invalidations = 10;
  b.samples = 20;
  le.line_start = 0x80;
  le.invalidations = 10;
  le.samples = 20;
  b.top_lines.push_back(le);

  FleetState state;
  state.absorb(1, 1, a);
  state.absorb(2, 2, b);
  const FleetRollup rollup = state.rollup(8);
  EXPECT_EQ(rollup.invalidations, 110u);
  EXPECT_EQ(rollup.samples, 220u);
  ASSERT_EQ(rollup.top_lines.size(), 2u);
  EXPECT_EQ(rollup.top_lines[0].line_start, 0x40u);
  EXPECT_EQ(rollup.top_lines[0].invalidations, 100u);
  EXPECT_EQ(rollup.top_lines[1].line_start, 0x80u);
  EXPECT_EQ(rollup.top_lines[1].invalidations, 10u);
}

// A real session's snapshot reads the trackers and sheds nothing, so the
// fleet rollup of it equals the lossless oracle: the report's invalidation
// total.
TEST(FleetRollup, MatchesTheReportOfARealSession) {
  SessionOptions o;
  o.heap_size = 8 * 1024 * 1024;
  o.runtime.tracking_threshold = 2;
  Session s(o);
  auto* data = static_cast<long*>(s.alloc(64, s.intern_frames({"drop.c:1"})));
  for (int i = 0; i < 20000; ++i) {
    s.record(&data[0], AccessType::kWrite, 0, 8);
    s.record(&data[1], AccessType::kWrite, 1, 8);
  }
  const MonitorSnapshot snap = s.monitor().snapshot();

  FleetState state;
  state.absorb(1, 1, snap);
  const FleetRollup rollup = state.rollup(8);
  const Report report = s.report();
  ASSERT_GT(report.total_invalidations, 0u);
  EXPECT_EQ(rollup.invalidations, report.total_invalidations);
  EXPECT_EQ(rollup.samples, snap.samples);
}

TEST(Collector, MatchesOracleForEveryOrder) {
  const std::vector<Delivery> deliveries = synth_fleet(6, 8, 4);
  const FleetState oracle = fold(deliveries);

  std::mt19937_64 rng(123);
  std::vector<Delivery> shuffled = deliveries;
  for (int round = 0; round < 5; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    Collector collector;
    for (const Delivery& d : shuffled) {
      collector.ingest(d.uid, d.pid, d.snap);
    }
    EXPECT_TRUE(collector.state() == oracle) << "round " << round;
  }
}

TEST(Collector, SixtyFourClientConcurrentIngestMatchesOracle) {
  // 64 simulated clients, frames interleaved across 8 ingest threads.
  // Whatever the interleaving, the collector's state must equal the
  // sequential oracle fold — that is the algebra's whole point. Under
  // TSan this is also the race check for the collector's one mutex.
  const std::vector<Delivery> deliveries = synth_fleet(7, 64, 3);
  const FleetState oracle = fold(deliveries);

  Collector collector;

  // Pre-encode every frame, then blast them concurrently.
  std::vector<std::string> frames;
  frames.reserve(deliveries.size());
  for (const Delivery& d : deliveries) {
    frames.push_back(
        SnapshotCodec::encode(d.snap, ClientId{d.uid, d.pid}));
  }
  constexpr std::size_t kThreads = 8;
  std::atomic<bool> done{false};
  std::thread reader([&] {  // a `serve --interval-ms` style rollup reader
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_LE(collector.rollup().clients, 64u);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < frames.size(); i += kThreads) {
        EXPECT_TRUE(collector.ingest_frame(frames[i]));
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(collector.state() == oracle);
  const Collector::Stats stats = collector.stats();
  EXPECT_EQ(stats.snapshots_ingested, deliveries.size());
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(collector.rollup().clients, 64u);
}

TEST(Collector, LoopbackSinkDeliversSessionFrames) {
  Collector collector;
  LoopbackSink sink(collector);

  SessionOptions opts;
  opts.heap_size = 8 * 1024 * 1024;
  opts.session_uid = 42;
  Session session(opts);
  EXPECT_TRUE(sink.send(session.hello_frame()));
  EXPECT_TRUE(sink.send(session.publish()));
  EXPECT_TRUE(sink.send(session.goodbye_frame()));

  const Collector::Stats stats = collector.stats();
  EXPECT_EQ(stats.hellos, 1u);
  EXPECT_EQ(stats.snapshots_ingested, 1u);
  EXPECT_EQ(stats.goodbyes, 1u);
  EXPECT_EQ(collector.rollup().clients, 1u);
}

TEST(Collector, RejectsCorruptAndForeignFrames) {
  Collector collector;
  std::string frame = SnapshotCodec::encode(MonitorSnapshot{}, ClientId{1, 1});
  frame[frame.size() - 1] ^= 0x10;  // torn payload
  EXPECT_FALSE(collector.ingest_frame(frame));

  // Structurally valid frame of a type that has no business here.
  EXPECT_FALSE(collector.ingest_frame(
      wire::encode_frame(wire::FrameType::kTraceHeader, "")));

  const Collector::Stats stats = collector.stats();
  EXPECT_EQ(stats.frames_rejected, 2u);
  EXPECT_EQ(stats.frames_ingested, 0u);
  EXPECT_EQ(collector.rollup().clients, 0u);
}

}  // namespace
}  // namespace pred
