// Tests for report construction: false/true sharing classification from
// word histograms, object attribution, ranking by invalidations, predicted
// findings, and Figure 5 formatting.
#include <gtest/gtest.h>

#include "runtime/report.hpp"

namespace pred {
namespace {

constexpr auto R = AccessType::kRead;
constexpr auto W = AccessType::kWrite;

WordReport word(Address addr, std::uint64_t reads, std::uint64_t writes,
                ThreadId owner, bool shared = false) {
  WordReport w;
  w.address = addr;
  w.line_index = addr / 64;
  w.reads = reads;
  w.writes = writes;
  w.owner = owner;
  w.shared = shared;
  return w;
}

TEST(ClassifyWords, EmptyIsNone) {
  EXPECT_EQ(classify_words({}), SharingKind::kNone);
}

TEST(ClassifyWords, SingleOwnerIsNone) {
  EXPECT_EQ(classify_words({word(0, 10, 10, 0), word(8, 5, 5, 0)}),
            SharingKind::kNone);
}

TEST(ClassifyWords, TwoOwnersWithWritesIsFalseSharing) {
  EXPECT_EQ(classify_words({word(0, 0, 100, 0), word(8, 0, 100, 1)}),
            SharingKind::kFalseSharing);
}

TEST(ClassifyWords, WriterPlusForeignReaderIsFalseSharing) {
  EXPECT_EQ(classify_words({word(0, 0, 100, 0), word(8, 100, 0, 1)}),
            SharingKind::kFalseSharing);
}

TEST(ClassifyWords, ReadOnlyWordsNeverFalseShare) {
  EXPECT_EQ(classify_words({word(0, 100, 0, 0), word(8, 100, 0, 1)}),
            SharingKind::kNone);
}

TEST(ClassifyWords, SharedWrittenWordIsTrueSharing) {
  EXPECT_EQ(classify_words(
                {word(0, 10, 50, WordAccess::kSharedWord, /*shared=*/true)}),
            SharingKind::kTrueSharing);
}

TEST(ClassifyWords, SharedReadOnlyWordIsNotTrueSharing) {
  EXPECT_EQ(classify_words(
                {word(0, 60, 0, WordAccess::kSharedWord, /*shared=*/true)}),
            SharingKind::kNone);
}

TEST(ClassifyWords, ContendedCounterPlusPrivateWordStaysTrueSharing) {
  // A hot shared counter next to one thread's read-only data: classified as
  // true sharing (no owned-writer/foreign-word pair).
  EXPECT_EQ(classify_words({word(0, 10, 90, WordAccess::kSharedWord, true),
                            word(8, 50, 0, 3)}),
            SharingKind::kTrueSharing);
}

TEST(ClassifyWords, OwnedWriterPlusSharedWordIsMixed) {
  // Word 0: written by its single owner; word 1: written by many.
  EXPECT_EQ(classify_words({word(0, 0, 90, 2),
                            word(8, 10, 90, WordAccess::kSharedWord, true)}),
            SharingKind::kMixed);
}

// --- end-to-end report construction over a real runtime -------------------

class ReportBuildTest : public ::testing::Test {
 protected:
  ReportBuildTest() : rt_(config()) {
    region_ = rt_.register_region(reinterpret_cast<Address>(buf_), 4096);
  }
  static RuntimeConfig config() {
    RuntimeConfig cfg;
    cfg.tracking_threshold = 2;
    cfg.prediction_threshold = 1000000;  // keep prediction out of the way
    cfg.report_invalidation_threshold = 50;
    return cfg;
  }
  Address addr(std::size_t off) const {
    return reinterpret_cast<Address>(buf_) + off;
  }

  alignas(64) char buf_[4096] = {};
  Runtime rt_;
  ShadowSpace* region_;
};

TEST_F(ReportBuildTest, CleanRunProducesEmptyReport) {
  for (int i = 0; i < 1000; ++i) rt_.handle_access(addr(0), W, 0);
  const Report rep = build_report(rt_);
  EXPECT_TRUE(rep.findings.empty());
  EXPECT_EQ(format_report(rep, rt_.callsites()),
            "No false sharing problems detected.\n");
}

TEST_F(ReportBuildTest, FalseSharingLineIsReportedAndAttributed) {
  ObjectInfo obj;
  obj.start = addr(0);
  obj.size = 128;
  obj.callsite = rt_.callsites().intern({"myfile.c:42"});
  rt_.objects().add(obj);

  for (int i = 0; i < 200; ++i) {
    rt_.handle_access(addr(0), W, 0);
    rt_.handle_access(addr(8), W, 1);
  }
  const Report rep = build_report(rt_);
  ASSERT_EQ(rep.findings.size(), 1u);
  const ObjectFinding& f = rep.findings[0];
  EXPECT_TRUE(f.attributed);
  EXPECT_EQ(f.object.start, addr(0));
  EXPECT_EQ(f.kind, SharingKind::kFalseSharing);
  EXPECT_TRUE(f.observed);
  EXPECT_FALSE(f.predicted);
  EXPECT_GT(f.invalidations, 100u);
  EXPECT_TRUE(f.is_false_sharing());

  const std::string text = format_finding(f, rt_.callsites());
  EXPECT_NE(text.find("FALSE SHARING HEAP OBJECT"), std::string::npos);
  EXPECT_NE(text.find("myfile.c:42"), std::string::npos);
  EXPECT_NE(text.find("by thread 0"), std::string::npos);
  EXPECT_NE(text.find("by thread 1"), std::string::npos);
}

TEST_F(ReportBuildTest, TrueSharingIsLabeledTrueSharing) {
  for (int i = 0; i < 200; ++i) {
    rt_.handle_access(addr(64), W, i % 4);  // same word, four threads
  }
  const Report rep = build_report(rt_);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, SharingKind::kTrueSharing);
  EXPECT_FALSE(rep.findings[0].is_false_sharing());
}

TEST_F(ReportBuildTest, GlobalObjectsReportTheirName) {
  ObjectInfo obj;
  obj.start = addr(192);
  obj.size = 64;
  obj.name = "global_counters";
  obj.is_global = true;
  rt_.objects().add(obj);
  for (int i = 0; i < 200; ++i) {
    rt_.handle_access(addr(192), W, 0);
    rt_.handle_access(addr(200), W, 1);
  }
  const Report rep = build_report(rt_);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_TRUE(rep.findings[0].object.is_global);
  const std::string text = format_finding(rep.findings[0], rt_.callsites());
  EXPECT_NE(text.find("GLOBAL VARIABLE"), std::string::npos);
  EXPECT_NE(text.find("global_counters"), std::string::npos);
}

TEST_F(ReportBuildTest, LongGlobalNameIsPrintedWhole) {
  // Longer than any fixed formatting buffer: the name must survive whole,
  // keep its newline, and leave the next section on a line of its own.
  ObjectInfo obj;
  obj.start = addr(192);
  obj.size = 64;
  obj.name = std::string(600, 'g');
  obj.is_global = true;
  rt_.objects().add(obj);
  for (int i = 0; i < 200; ++i) {
    rt_.handle_access(addr(192), W, 0);
    rt_.handle_access(addr(200), W, 1);
  }
  const std::string text = format_report(build_report(rt_), rt_.callsites());
  EXPECT_NE(text.find("\nGlobal name: " + obj.name +
                      "\nWord level information:\n"),
            std::string::npos)
      << text;
}

TEST_F(ReportBuildTest, FindingsAreRankedByInvalidations) {
  // Object A: mild ping-pong. Object B: severe ping-pong.
  for (int i = 0; i < 60; ++i) {
    rt_.handle_access(addr(0), W, 0);
    rt_.handle_access(addr(8), W, 1);
  }
  for (int i = 0; i < 600; ++i) {
    rt_.handle_access(addr(1024), W, 0);
    rt_.handle_access(addr(1032), W, 1);
  }
  const Report rep = build_report(rt_);
  ASSERT_EQ(rep.findings.size(), 2u);
  EXPECT_EQ(rep.findings[0].object.start, addr(1024));
  EXPECT_GT(rep.findings[0].impact(), rep.findings[1].impact());
}

TEST_F(ReportBuildTest, MultiLineObjectAggregates) {
  ObjectInfo obj;
  obj.start = addr(0);
  obj.size = 256;  // 4 lines
  obj.callsite = rt_.callsites().intern({"big.c:1"});
  rt_.objects().add(obj);
  for (int i = 0; i < 200; ++i) {
    rt_.handle_access(addr(0), W, 0);
    rt_.handle_access(addr(8), W, 1);
    rt_.handle_access(addr(128), W, 2);
    rt_.handle_access(addr(136), W, 3);
  }
  const Report rep = build_report(rt_);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].lines.size(), 2u);
  EXPECT_GT(rep.findings[0].invalidations, 350u);
}

TEST_F(ReportBuildTest, PredictedFindingFromVirtualLine) {
  ObjectInfo obj;
  obj.start = addr(0);
  obj.size = 128;
  obj.callsite = rt_.callsites().intern({"latent.c:9"});
  rt_.objects().add(obj);

  auto* vl = rt_.add_virtual_line(*region_, addr(32), 64,
                                  VirtualLineTracker::Kind::kShifted, addr(56),
                                  addr(64));
  ASSERT_NE(vl, nullptr);
  // Threads 0 and 1 write words on *different* physical lines inside the
  // virtual range: no physical invalidations, only virtual ones.
  for (int i = 0; i < 200; ++i) {
    rt_.handle_access(addr(56), W, 0);
    rt_.handle_access(addr(64), W, 1);
  }
  const Report rep = build_report(rt_);
  ASSERT_EQ(rep.findings.size(), 1u);
  const ObjectFinding& f = rep.findings[0];
  EXPECT_TRUE(f.predicted);
  EXPECT_FALSE(f.observed);
  EXPECT_TRUE(f.is_false_sharing());
  EXPECT_GT(f.predicted_invalidations, 100u);
  const std::string text = format_finding(f, rt_.callsites());
  EXPECT_NE(text.find("PREDICTED"), std::string::npos);
  EXPECT_NE(text.find("shifted placement"), std::string::npos);
}

}  // namespace
}  // namespace pred
