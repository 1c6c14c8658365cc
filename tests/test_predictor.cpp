// Tests for the prediction engine (Section 3): hot-word extraction, the
// pair search with its three eligibility conditions, the invalidation
// estimate, virtual-line placement (Figure 4), and the two Figure 3
// scenarios end-to-end (double line size; shifted object placement).
#include <gtest/gtest.h>

#include "predict/hot_access.hpp"
#include "predict/predictor.hpp"
#include "runtime/report.hpp"

namespace pred {
namespace {

constexpr auto R = AccessType::kRead;
constexpr auto W = AccessType::kWrite;
constexpr LineGeometry kGeo{};

HotWord hw(Address addr, std::uint64_t reads, std::uint64_t writes,
           ThreadId owner, bool shared = false) {
  return HotWord{addr, reads, writes, owner, shared};
}

TEST(HotAccess, AverageWordAccesses) {
  std::vector<WordAccess> words(8);
  words[0].reads = 80;
  words[3].writes = 80;
  EXPECT_EQ(average_word_accesses(words, 8), 20u);
  EXPECT_EQ(average_word_accesses({}, 8), 0u);
}

TEST(HotAccess, HotWordsExceedThreshold) {
  std::vector<WordAccess> words(8);
  words[1].writes = 100;
  words[1].owner = 3;
  words[2].reads = 5;
  words[2].owner = 1;
  const auto hot = hot_words(words, 640, kGeo, 10);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].address, 648u);
  EXPECT_EQ(hot[0].writes, 100u);
  EXPECT_EQ(hot[0].owner, 3u);
}

TEST(HotAccess, PairEligibilityRules) {
  // (2) at least one write:
  EXPECT_FALSE(pair_eligible(hw(0, 100, 0, 0), hw(64, 100, 0, 1)));
  EXPECT_TRUE(pair_eligible(hw(0, 0, 100, 0), hw(64, 100, 0, 1)));
  // (3) different threads:
  EXPECT_FALSE(pair_eligible(hw(0, 0, 100, 2), hw(64, 100, 0, 2)));
  // shared words count as any-thread:
  EXPECT_TRUE(pair_eligible(hw(0, 0, 100, 2),
                            hw(64, 100, 0, WordAccess::kSharedWord, true)));
}

TEST(HotAccess, InvalidationEstimateIsConservativeInterleaving) {
  // Both write 100 times with ample opposite traffic: 200 estimated.
  EXPECT_EQ(estimate_pair_invalidations(hw(0, 0, 100, 0), hw(64, 0, 100, 1)),
            200u);
  // One-sided writes capped by the other side's traffic.
  EXPECT_EQ(estimate_pair_invalidations(hw(0, 0, 100, 0), hw(64, 5, 0, 1)),
            5u);
}

TEST(HotAccess, FindHotPairsOrdersByAddress) {
  const auto pairs =
      find_hot_pairs({hw(648, 0, 100, 0)}, {hw(600, 100, 50, 1)});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].x.address, 600u);
  EXPECT_EQ(pairs[0].y.address, 648u);
  EXPECT_GT(pairs[0].estimated_invalidations, 0u);
}

// --- end-to-end scenarios over a real runtime ------------------------------

struct PredictorFixture : ::testing::Test {
  static RuntimeConfig config() {
    RuntimeConfig cfg;
    cfg.tracking_threshold = 2;
    cfg.prediction_threshold = 64;
    cfg.report_invalidation_threshold = 50;
    return cfg;
  }

  PredictorFixture() : rt(config()) {
    predictor.attach(rt);
    region = rt.register_region(reinterpret_cast<Address>(buf), 8192);
  }

  Address addr(std::size_t off) const {
    return reinterpret_cast<Address>(buf) + off;
  }
  /// Line-aligned base offset inside the buffer with an even line index,
  /// so double-line candidates are possible.
  std::size_t even_base() const {
    const std::size_t idx0 = reinterpret_cast<Address>(buf) / 64;
    return idx0 % 2 == 0 ? 0 : 64;
  }

  alignas(64) char buf[8192] = {};
  Runtime rt;
  Predictor predictor;
  ShadowSpace* region;
};

TEST_F(PredictorFixture, Figure3bDoubleLinePrediction) {
  // Thread 0 hammers the end of even line L; thread 1 hammers the start of
  // line L+1. No physical sharing — but doubling the line size merges them.
  const std::size_t base = even_base();
  for (int i = 0; i < 400; ++i) {
    rt.handle_access(addr(base + 56), W, 0);
    rt.handle_access(addr(base + 64), W, 1);
  }
  ASSERT_GT(predictor.candidates_nominated(), 0u);
  bool found_double = false;
  bool found_shifted = false;
  for (const auto& vl : rt.virtual_lines()) {
    if (vl.kind() == VirtualLineTracker::Kind::kDoubleLine) {
      found_double = true;
      EXPECT_EQ(vl.size(), 128u);
      EXPECT_EQ(vl.start() % 128, 0u);  // aligned pair (2i, 2i+1)
      EXPECT_GT(vl.invalidations(), 50u);
    }
    if (vl.kind() == VirtualLineTracker::Kind::kShifted) {
      found_shifted = true;
      EXPECT_EQ(vl.size(), 64u);
      // Figure 4 placement: equal slack around the hot pair. d = 8, so the
      // line starts 28 bytes (word-aligned: 32) before X.
      EXPECT_LE(vl.start(), addr(base + 56));
      EXPECT_GT(vl.start() + vl.size(), addr(base + 64));
      EXPECT_GT(vl.invalidations(), 50u);
    }
  }
  EXPECT_TRUE(found_double);
  EXPECT_TRUE(found_shifted);

  // And the report surfaces it as a predicted false sharing finding.
  const Report rep = build_report(rt);
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_TRUE(rep.findings[0].predicted);
  EXPECT_FALSE(rep.findings[0].observed);
}

TEST_F(PredictorFixture, NoPredictionForSameThreadNeighbors) {
  const std::size_t base = even_base();
  for (int i = 0; i < 400; ++i) {
    rt.handle_access(addr(base + 56), W, 7);
    rt.handle_access(addr(base + 64), W, 7);  // same thread
  }
  EXPECT_EQ(predictor.candidates_nominated(), 0u);
}

TEST_F(PredictorFixture, NoPredictionForReadOnlyNeighbors) {
  const std::size_t base = even_base();
  // Writes by one thread confined to one line; the neighbor only reads its
  // own line: hot pair exists but read-read between the two... actually the
  // writer word pairs with the reader word — eligible. Make both sides
  // read-only instead; reads alone never even escalate.
  for (int i = 0; i < 400; ++i) {
    rt.handle_access(addr(base + 56), R, 0);
    rt.handle_access(addr(base + 64), R, 1);
  }
  EXPECT_EQ(predictor.candidates_nominated(), 0u);
  EXPECT_TRUE(build_report(rt).findings.empty());
}

TEST_F(PredictorFixture, ColdNeighborsProduceNoCandidates) {
  // A hot line whose neighbors are never touched: nothing to pair with.
  const std::size_t base = even_base();
  for (int i = 0; i < 400; ++i) {
    rt.handle_access(addr(base + 0), W, 0);
    rt.handle_access(addr(base + 8), W, 0);  // same thread, same line
  }
  EXPECT_EQ(predictor.candidates_nominated(), 0u);
}

TEST_F(PredictorFixture, VerificationRejectsNonInterleavedCandidates) {
  // Hot pair from different threads, but the threads are active in
  // disjoint phases — nomination happens (conservatively), verification
  // then sees few invalidations on the virtual line.
  const std::size_t base = even_base();
  for (int i = 0; i < 300; ++i) rt.handle_access(addr(base + 56), W, 0);
  for (int i = 0; i < 300; ++i) rt.handle_access(addr(base + 64), W, 1);
  // Candidates may exist...
  // (thread 1's line crossed the prediction threshold after thread 0 went
  // quiet)
  for (const auto& vl : rt.virtual_lines()) {
    // ...but the verified invalidation counts stay tiny.
    EXPECT_LE(vl.invalidations(), 2u);
  }
  const Report rep = build_report(rt);
  for (const auto& f : rep.findings) {
    EXPECT_FALSE(f.predicted) << "phase-disjoint access must not verify";
  }
}

TEST_F(PredictorFixture, DedupNominatesEachVirtualLineOnce) {
  const std::size_t base = even_base();
  for (int i = 0; i < 2000; ++i) {
    rt.handle_access(addr(base + 56), W, 0);
    rt.handle_access(addr(base + 64), W, 1);
  }
  // Both lines cross PredictionThreshold and analyze; the shared candidate
  // set must be deduplicated.
  std::size_t doubles = 0;
  for (const auto& vl : rt.virtual_lines()) {
    doubles += vl.kind() == VirtualLineTracker::Kind::kDoubleLine;
  }
  EXPECT_LE(doubles, 1u);
}

TEST_F(PredictorFixture, AnalyzeLineDirectlyIsSafeOnColdLines) {
  predictor.analyze_line(rt, *region, 5);  // no tracker: no-op
  EXPECT_EQ(predictor.candidates_nominated(), 0u);
}

TEST_F(PredictorFixture, WholeObjectAdjustmentCoversOtherHotLines) {
  // Section 3.4: the shifted placement must be applied to the entire
  // object, not just the hot pair's window. A 4-line object with hot pairs
  // at one boundary must grow shifted virtual lines over its *other* hot
  // lines too.
  const std::size_t base = even_base();
  ObjectInfo obj;
  obj.start = addr(base);
  obj.size = 256;  // 4 lines
  obj.callsite = rt.callsites().intern({"whole.c:1"});
  rt.objects().add(obj);

  for (int i = 0; i < 400; ++i) {
    rt.handle_access(addr(base + 56), AccessType::kWrite, 0);
    rt.handle_access(addr(base + 64), AccessType::kWrite, 1);
    // A third thread hammering the object's last line (not part of any hot
    // pair: its neighbors inside the object are these same threads').
    rt.handle_access(addr(base + 192), AccessType::kWrite, 2);
  }
  // Shifted virtual lines must exist beyond the pair's own window —
  // covering the line the third thread owns, at the same delta.
  bool covers_far_line = false;
  for (const auto& vl : rt.virtual_lines()) {
    if (vl.kind() != VirtualLineTracker::Kind::kShifted) continue;
    if (vl.start() >= addr(base + 128) && vl.start() < addr(base + 256)) {
      covers_far_line = true;
      EXPECT_NE(vl.start() % 64, 0u) << "adjusted lines must be shifted";
    }
  }
  EXPECT_TRUE(covers_far_line);
}

}  // namespace
}  // namespace pred
