// Parameterized property suites: invariants that must hold across sweeps of
// placement offsets, thread counts, sampling rates, and replay quanta —
// pinning down the behaviors the paper's evaluation relies on.
#include <gtest/gtest.h>

#include "workloads/workload.hpp"

namespace pred::wl {
namespace {

SessionOptions options_with(double sampling_rate = 0.01,
                            std::uint64_t report_threshold = 100) {
  SessionOptions o;
  o.heap_size = 32 * 1024 * 1024;
  o.runtime.set_sampling_rate(sampling_rate);
  o.runtime.report_invalidation_threshold = report_threshold;
  return o;
}

// --- Figure 2 family: every lreg placement offset is caught somehow --------

class OffsetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OffsetSweep, LinearRegressionCaughtAtEveryOffset) {
  const Workload* w = find_workload("linear_regression");
  ASSERT_NE(w, nullptr);
  Session session(options_with());
  Params p;
  p.threads = 8;
  p.offset = GetParam();
  w->run_replay(session, p);
  EXPECT_TRUE(report_mentions_site(session.report(),
                                   session.runtime().callsites(),
                                   w->traits().sites[0].where))
      << "offset " << GetParam() << "\n"
      << session.report_text();
}

INSTANTIATE_TEST_SUITE_P(AllOffsets, OffsetSweep,
                         ::testing::Values(0, 8, 16, 24, 32, 40, 48, 56),
                         [](const auto& info) {
                           return "offset" + std::to_string(info.param);
                         });

// --- thread-count sweeps ----------------------------------------------------

class ThreadSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThreadSweep, HistogramFalseSharingFoundAtAnyConcurrency) {
  const Workload* w = find_workload("histogram");
  ASSERT_NE(w, nullptr);
  Session session(options_with());
  Params p;
  p.threads = GetParam();
  w->run_replay(session, p);
  EXPECT_TRUE(report_mentions_site(session.report(),
                                   session.runtime().callsites(),
                                   w->traits().sites[0].where))
      << session.report_text();
}

TEST_P(ThreadSweep, CleanWorkloadStaysCleanAtAnyConcurrency) {
  const Workload* w = find_workload("string_match");
  ASSERT_NE(w, nullptr);
  Session session(options_with());
  Params p;
  p.threads = GetParam();
  w->run_replay(session, p);
  EXPECT_EQ(false_sharing_findings(session.report()), 0u)
      << session.report_text();
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep, ::testing::Values(2, 4, 8),
                         [](const auto& info) {
                           std::string name = "t";
                           return name.append(std::to_string(info.param));
                         });

// --- the single-thread invariant -------------------------------------------

class SingleThread : public ::testing::TestWithParam<std::string> {};

TEST_P(SingleThread, OneThreadNeverFalseShares) {
  const Workload* w = find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  Session session(options_with());
  Params p;
  p.threads = 1;
  w->run_replay(session, p);
  EXPECT_EQ(false_sharing_findings(session.report()), 0u)
      << session.report_text();
  // Stronger: no invalidations at all can occur with one thread.
  EXPECT_EQ(session.report().total_invalidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Buggy, SingleThread,
    ::testing::Values("linear_regression", "histogram", "streamcluster",
                      "mysql", "boost", "memcached"),
    [](const auto& info) { return info.param; });

// --- sampling-rate sweeps (Figure 10's effectiveness claim) -----------------

class SamplingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SamplingSweep, DetectionSurvivesLowSamplingRates) {
  const double rate = GetParam();
  // Lower rates report fewer invalidations (the paper's observation), so
  // scale the report threshold with the rate, as the paper's fixed default
  // effectively does for its longer executions.
  const auto threshold =
      static_cast<std::uint64_t>(100.0 * (rate < 1.0 ? rate : 1.0));
  const Workload* w = find_workload("histogram");
  ASSERT_NE(w, nullptr);
  Session session(options_with(rate, threshold < 5 ? 5 : threshold));
  Params p;
  p.threads = 8;
  p.scale = 4;  // longer run: gives sparse samples enough to accumulate
  w->run_replay(session, p);
  EXPECT_TRUE(report_mentions_site(session.report(),
                                   session.runtime().callsites(),
                                   w->traits().sites[0].where))
      << "sampling rate " << rate << "\n"
      << session.report_text();
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingSweep,
                         ::testing::Values(0.001, 0.01, 0.1, 1.0),
                         [](const auto& info) {
                           return "rate" +
                                  std::to_string(
                                      static_cast<int>(info.param * 1000));
                         });

// --- monotonicity properties ------------------------------------------------

TEST(Monotonicity, CoarserReplayQuantumNeverIncreasesInvalidations) {
  const Workload* w = find_workload("mysql");
  ASSERT_NE(w, nullptr);
  std::uint64_t prev = ~0ull;
  for (const std::size_t quantum : {1, 8, 64, 512}) {
    Session session(options_with());
    Params p;
    p.threads = 8;
    const auto traces = w->capture(session, p);
    replay_into_session(session, traces, quantum);
    const std::uint64_t inv = session.report().total_invalidations;
    EXPECT_LE(inv, prev) << "quantum " << quantum;
    prev = inv;
  }
}

TEST(Monotonicity, HigherReportThresholdNeverAddsFindings) {
  const Workload* w = find_workload("streamcluster");
  ASSERT_NE(w, nullptr);
  std::size_t prev = ~std::size_t{0};
  for (const std::uint64_t threshold : {10ull, 100ull, 10000ull, 10000000ull}) {
    Session session(options_with(0.01, threshold));
    Params p;
    p.threads = 8;
    w->run_replay(session, p);
    const std::size_t n = session.report().findings.size();
    EXPECT_LE(n, prev) << "threshold " << threshold;
    prev = n;
  }
}

TEST(Monotonicity, MoreWorkMeansMoreInvalidationsForBuggyRuns) {
  // Needs 100% sampling: at the default 1% rate the per-window cap makes
  // invalidation counts saturate, which is exactly the Figure 10
  // "lower rates report fewer invalidations" behavior.
  const Workload* w = find_workload("histogram");
  ASSERT_NE(w, nullptr);
  std::uint64_t prev = 0;
  for (const std::uint64_t scale : {1ull, 2ull, 4ull}) {
    Session session(options_with(1.0));
    Params p;
    p.threads = 8;
    p.scale = scale;
    w->run_replay(session, p);
    const std::uint64_t inv = session.report().total_invalidations;
    EXPECT_GT(inv, prev) << "scale " << scale;
    prev = inv;
  }
}

// --- detection is robust to the instrument mode ----------------------------

TEST(WritesOnlyMode, StillCatchesWriteWriteFalseSharing) {
  SessionOptions o = options_with();
  o.runtime.instrument_mode = InstrumentMode::kWritesOnly;
  const Workload* w = find_workload("histogram");
  ASSERT_NE(w, nullptr);
  Session session(o);
  Params p;
  p.threads = 8;
  w->run_replay(session, p);
  EXPECT_TRUE(report_mentions_site(session.report(),
                                   session.runtime().callsites(),
                                   w->traits().sites[0].where))
      << session.report_text();
}

// --- prediction disabled == PREDATOR-NP ------------------------------------

TEST(PredictionToggle, NpMissesLatentLinearRegressionBug) {
  const Workload* w = find_workload("linear_regression");
  ASSERT_NE(w, nullptr);
  SessionOptions o = options_with();
  o.runtime.prediction_enabled = false;
  Session session(o);
  Params p;
  p.threads = 8;
  p.offset = 0;  // clean placement: only prediction can catch it
  w->run_replay(session, p);
  EXPECT_FALSE(report_mentions_site(session.report(),
                                    session.runtime().callsites(),
                                    w->traits().sites[0].where))
      << "PREDATOR-NP must miss the latent problem (Table 1)";
}

}  // namespace
}  // namespace pred::wl
