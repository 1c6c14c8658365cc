// Differential testing against a reference oracle.
//
// ReferenceDetector is a deliberately slow, obviously-correct
// reimplementation of the Section 2.3.1 invalidation rules (no thresholds,
// no atomics — a direct transcription of the paper's bullet list per line)
// with the seed's Section 2.4.3 sampling rule: access number n of a line is
// recorded iff n % interval < window. Random access streams, with ownership
// handoffs over random ranges interleaved, are fed to both the oracle and
// the production Runtime (every line tracked, one OS thread); their
// per-line access totals, sampled counts, invalidation counts and word
// histograms must match exactly, at full and at partial sampling. The
// streams also hold runs of one access repeated up to 3 × interval times,
// which the runtime receives as one batched call (Runtime::handle_access_n)
// and the oracle as that many single accesses.
#include <gtest/gtest.h>

#include <map>

#include "common/prng.hpp"
#include "runtime/report.hpp"
#include "runtime/runtime.hpp"

namespace pred {
namespace {

/// Direct transcription of the paper's rules, one state machine per line.
class ReferenceDetector {
 public:
  ReferenceDetector(std::uint64_t window, std::uint64_t interval)
      : window_(window), interval_(interval) {}

  void access(Address addr, AccessType type, ThreadId tid) {
    LineState& st = lines_[addr / 64];
    if (st.accesses++ % interval_ >= window_) return;  // not sampled
    // Word histogram.
    WordState& w = st.words[(addr % 64) / 8];
    if (type == AccessType::kWrite) {
      ++w.writes;
      ++st.sampled_writes;
    } else {
      ++w.reads;
      ++st.sampled_reads;
    }
    if (w.owner == kInvalidThread) {
      w.owner = tid;
    } else if (w.owner != tid) {
      w.owner = WordAccess::kSharedWord;
    }
    // Two-entry history, straight from Section 2.3.1.
    if (type == AccessType::kRead) {
      if (st.entries == 0) {
        st.tid[st.entries++] = tid;
      } else if (st.entries == 1 && st.tid[0] != tid) {
        st.tid[st.entries++] = tid;
      }
      return;
    }
    write(st, tid);
  }

  /// A handoff claim of line `line` by `tid`: one write through the
  /// two-entry rules. It is not an access: it counts nothing, ticks no
  /// sampling clock and touches no word.
  void claim(std::size_t line, ThreadId tid) { write(lines_[line], tid); }

  struct WordState {
    std::uint64_t reads = 0, writes = 0;
    ThreadId owner = kInvalidThread;
  };
  struct LineState {
    std::uint64_t accesses = 0;
    std::uint64_t sampled_reads = 0, sampled_writes = 0;
    std::uint64_t invalidations = 0;
    int entries = 0;
    ThreadId tid[2] = {kInvalidThread, kInvalidThread};
    WordState words[8];
  };

  const std::map<std::size_t, LineState>& lines() const { return lines_; }

 private:
  static void write(LineState& st, ThreadId tid) {
    const bool invalidation =
        st.entries == 2 || (st.entries == 1 && st.tid[0] != tid);
    if (invalidation) ++st.invalidations;
    st.tid[0] = tid;
    st.entries = 1;
  }

  const std::uint64_t window_;
  const std::uint64_t interval_;
  std::map<std::size_t, LineState> lines_;
};


alignas(64) char g_buf[16 * 1024];

/// One step of a stream: `count` copies of an access, or (handoff_len > 0)
/// a handoff of [addr, addr + handoff_len) to `tid`.
struct Access {
  Address addr;
  AccessType type;
  ThreadId tid;
  std::size_t handoff_len = 0;
  std::uint64_t count = 1;
};

/// About one step in 50 is a handoff of 1 to 192 bytes starting anywhere
/// in the accessed lines, so a range covers up to four lines. About one
/// access step in 8 is a run of 1 to `max_run` copies.
std::vector<Access> random_stream(std::uint64_t seed, int n, int threads,
                                  std::size_t lines, std::uint64_t max_run) {
  Xorshift64 rng(seed);
  std::vector<Access> out;
  out.reserve(n);
  const Address base = reinterpret_cast<Address>(g_buf);
  for (int i = 0; i < n; ++i) {
    Access a;
    if (rng.next_below(50) == 0) {
      a.addr = base + rng.next_below(lines * 64);
      a.type = AccessType::kWrite;
      a.handoff_len = 1 + rng.next_below(192);
    } else {
      a.addr = base + rng.next_below(lines) * 64 + rng.next_below(8) * 8;
      a.type = rng.next_below(3) == 0 ? AccessType::kWrite : AccessType::kRead;
      if (rng.next_below(8) == 0) a.count = 1 + rng.next_below(max_run);
    }
    a.tid = static_cast<ThreadId>(rng.next_below(threads));
    out.push_back(a);
  }
  return out;
}

void expect_runtime_matches_reference(std::uint64_t seed,
                                      std::uint64_t window,
                                      std::uint64_t interval) {
  const auto stream = random_stream(seed, 30000, 6, 12, 3 * interval);

  ReferenceDetector oracle(window, interval);
  RuntimeConfig cfg;
  cfg.tracking_threshold = 1;
  cfg.prediction_enabled = false;
  cfg.sample_window = window;
  cfg.sample_interval = interval;
  Runtime rt(cfg);
  auto* region = rt.register_region(reinterpret_cast<Address>(g_buf),
                                    sizeof(g_buf));
  // Caveat: with tracking_threshold = 1 the runtime's first write per line
  // is counted in the fast path before the tracker exists, so the oracle
  // must see everything and the runtime everything except that first write
  // per line. To compare exactly, pre-escalate all lines. Odd lines keep
  // their prediction decision pending, so their writes take the per-access
  // path inside a batched call; even lines' writes retire in closed form.
  for (std::size_t i = 0; i < region->num_lines(); ++i) {
    CacheTracker* t = region->ensure_tracker(i);
    if (i % 2 == 0) t->settle_prediction();
  }

  std::size_t handoffs = 0;
  std::uint64_t batched = 0;
  for (const Access& a : stream) {
    if (a.handoff_len == 0) {
      for (std::uint64_t k = 0; k < a.count; ++k) {
        oracle.access(a.addr, a.type, a.tid);
      }
      if (a.count == 1) {
        rt.handle_access(a.addr, a.type, a.tid);
      } else {
        rt.handle_access_n(a.addr, a.type, a.tid, 8, a.count);
        batched += a.count;
      }
      continue;
    }
    for (Address l = a.addr / 64; l <= (a.addr + a.handoff_len - 1) / 64;
         ++l) {
      oracle.claim(l, a.tid);
    }
    rt.handle_handoff(a.addr, a.handoff_len, a.tid);
    ++handoffs;
  }
  ASSERT_GT(handoffs, 0u);
  ASSERT_GT(batched, 0u);

  for (const auto& [line, ref] : oracle.lines()) {
    const std::size_t idx =
        region->line_index(static_cast<Address>(line * 64));
    CacheTracker* t = region->tracker(idx);
    ASSERT_NE(t, nullptr) << "line " << line;
    EXPECT_EQ(t->total_accesses(), ref.accesses) << "line " << line;
    EXPECT_EQ(t->sampled_reads(), ref.sampled_reads) << "line " << line;
    EXPECT_EQ(t->sampled_writes(), ref.sampled_writes) << "line " << line;
    EXPECT_EQ(t->invalidations(), ref.invalidations) << "line " << line;
    const auto words = t->words_snapshot();
    for (int w = 0; w < 8; ++w) {
      EXPECT_EQ(words[w].reads, ref.words[w].reads)
          << "line " << line << " word " << w;
      EXPECT_EQ(words[w].writes, ref.words[w].writes)
          << "line " << line << " word " << w;
      EXPECT_EQ(words[w].owner, ref.words[w].owner)
          << "line " << line << " word " << w;
    }
  }
}

class OracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSweep, RuntimeMatchesReferenceExactly) {
  expect_runtime_matches_reference(GetParam(), 1, 1);  // record everything
}

// Most accesses fall outside the window, so the inline tracked exit and
// the slow path's sampling clock both have to agree with `n % interval`.
TEST_P(OracleSweep, RuntimeMatchesReferenceAtPartialSampling) {
  expect_runtime_matches_reference(GetParam(), 7, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pred
