// Tracked-path ablation: sampled-access throughput on ONE hot (escalated)
// cache line — the contention worst case. The bench drives the trackers'
// handle_access directly (no region lookup, no pre-threshold layers —
// microbench_fastpath owns those) so the measurement isolates the tracked
// path itself: sampling decision, sampled counters, word histogram,
// two-entry history table.
//
//   spin      SeedTracker below: the seed's global sample clock and one
//             per-line spinlock around every sampled update
//   lockfree  pred::CacheTracker: striped clocks + CAS history
//
// Workload: T threads, each writing its own word of the same line (classic
// false sharing — every sampled write by a new thread invalidates), full
// sampling so every access takes the detail path. Reported as accesses/sec
// per thread count for both modes; `speedup_tN` = lockfree / spin.
//
// A second phase measures ownership handoffs:
//
//   handoff    line ownership rotates between threads in bursts, the
//              lock-handoff shape — each tenure claims via
//              claim_for_handoff then makes a same-owner write burst, each
//              write on the full sampled path. A turn counter per line
//              passes the line from thread to thread, so each tenure starts
//              when the previous one on the line ends and the schedule does
//              not depend on the host. `handoff_tN_aps` sums the threads'
//              rates, each over the wall time of its own tenures (waiting
//              for a turn is not counted), best of three passes.
//
// The last phases measure virtual-line fan-out, the step that forwards each
// sampled access to the virtual lines verifying a predicted placement:
//
//   fanout     two adjacent tracked lines, thread t writing its own 8-byte
//              slot (line t % 2, word t / 2), covered by the virtual lines
//              the predictor nominates for them: the double line and a
//              shifted line at each word offset. Full sampling, prediction
//              settled; each access runs the tracker, then the fan-out, as
//              Runtime::handle_tracked does for a sampled access. The
//              threads start together and each times its own loop; a
//              pass's rate is the sum of the threads' rates, and each
//              layout keeps the best of three passes.
//              `fanout_speedup_tN` = the production fan-out (per-word
//              tables onto history words packed by anchor line, counts in
//              per-token tables) over SeedFanOut below (a pointer vector
//              scanned with a range check per virtual line, a shared access
//              counter per covering line, and 72-byte lines that share host
//              lines).
//   adjacent   two threads, pinned to two CPUs when there are two, make
//              read+write pairs on adjacent words (3 and 4) of one line,
//              fully sampled, covered as `churn` covers its counters:
//              shifted lines at five offsets anchored on the line and on
//              the line before it, and the double line, six covering lines
//              per word. Each thread times its own loop; a pass counts only
//              when the two loops overlapped for 90% of the longer one, and
//              each layout reports the median ns/access of its kept passes
//              (passes alternate between layouts). `fanout_adjacent_
//              speedup_t2` = OwnLineFanOut below (the layout before history
//              words were packed: a host line per virtual line holding its
//              history word and a shared invalidation counter) over the
//              production layout: two history blocks written per access
//              instead of six lines.
//
// Usage: microbench_tracked [writes_per_thread] [--json FILE]
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/spinlock.hpp"
#include "runtime/cache_tracker.hpp"
#include "runtime/history_table.hpp"
#include "runtime/virtual_line.hpp"
#include "runtime/word_access.hpp"

namespace {

constexpr std::uint32_t kThreadCounts[] = {1, 2, 4, 8, 16};
constexpr pred::LineGeometry kGeo{};  // 64-byte line, 8-byte words
constexpr pred::Address kLineBase = 0;

// The seed tracker: one global access counter sampled by `n % interval`
// (a hardware divide per access), then one per-line spinlock around every
// sampled update. Members keep the seed's layout — lock and counters on
// the first line, the access counter past the word histogram.
class alignas(pred::kCacheLineSize) SeedTracker {
 public:
  SeedTracker(std::size_t /*line_index*/, const pred::LineGeometry& geometry)
      : geometry_(geometry) {}

  void handle_access(pred::Address addr, pred::AccessType type,
                     pred::ThreadId tid, std::uint64_t window,
                     std::uint64_t interval) {
    const std::uint64_t n =
        access_counter_.fetch_add(1, std::memory_order_relaxed);
    if (n % interval >= window) return;  // outside the window: count only
    std::lock_guard<pred::Spinlock> g(lock_);
    ++(type == pred::AccessType::kWrite ? sampled_writes_ : sampled_reads_);
    words_[geometry_.word_in_line(addr)].record(tid, type);
    if (history_.access(tid, type) == pred::HistoryOutcome::kInvalidation) {
      ++invalidations_;
    }
  }

  std::uint64_t sampled_accesses() const {
    std::lock_guard<pred::Spinlock> g(lock_);
    return sampled_reads_ + sampled_writes_;
  }
  std::uint64_t sampled_writes() const {
    std::lock_guard<pred::Spinlock> g(lock_);
    return sampled_writes_;
  }

 private:
  mutable pred::Spinlock lock_;
  pred::HistoryTable history_;
  std::uint64_t invalidations_ = 0;
  std::uint64_t sampled_reads_ = 0;
  std::uint64_t sampled_writes_ = 0;
  std::array<pred::WordAccess, pred::CacheTracker::kMaxWords> words_{};
  std::atomic<std::uint64_t> access_counter_{0};
  const pred::LineGeometry geometry_;
};

// The runtime passes the sampling window/interval from RuntimeConfig, so
// the seed tracker's `n % interval` is a genuine hardware divide there.
// Source the bench's values through a volatile so the compiler cannot
// strength-reduce the modulo into multiply tricks and flatter the baseline.
volatile std::uint64_t g_window = 1'000'000;
volatile std::uint64_t g_interval = 1'000'000;

template <typename Tracker>
double run_mode(std::uint32_t nthreads, std::uint64_t writes_per_thread) {
  Tracker tracker(0, kGeo);
  // window == interval: full sampling, every access walks the detail path.
  const std::uint64_t window = g_window;
  const std::uint64_t interval = g_interval;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&tracker, t, writes_per_thread, window, interval] {
      const pred::Address word = kLineBase + (t % 8) * 8;
      for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
        tracker.handle_access(word, pred::AccessType::kWrite, t, window,
                              interval);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();

  // Sanity: the books must balance whatever the interleaving.
  const std::uint64_t total =
      static_cast<std::uint64_t>(nthreads) * writes_per_thread;
  if (tracker.sampled_accesses() != total ||
      tracker.sampled_writes() != total) {
    std::fprintf(stderr, "conservation violated: %" PRIu64 " sampled of %"
                 PRIu64 "\n", tracker.sampled_accesses(), total);
    std::exit(1);
  }
  return static_cast<double>(total) / secs;
}

// Phase 2: lock handoff. Thread t's r-th tenure runs on tracker
// (t + r) % T, whose r-th tenure it is: the thread waits until the line's
// turn counter reaches r, claims the line (claim_for_handoff — the
// receiver's synthetic first write), makes a burst of same-owner writes on
// the full sampled path, and passes the turn on. Every tenure has its line
// to itself, so ownership survives each one whatever the host's
// scheduling. Returns the aggregate accesses/s: the sum of the threads'
// rates, each over the wall time of its own tenures.
double run_handoff(std::uint32_t nthreads, std::uint64_t bursts_per_thread) {
  constexpr std::uint64_t kBurst = 64;
  struct alignas(pred::kCacheLineSize) Turn {
    std::atomic<std::uint64_t> tenures{0};  ///< tenures finished on the line
  };
  std::vector<std::unique_ptr<pred::CacheTracker>> trackers;
  trackers.reserve(nthreads);
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    trackers.push_back(
        std::make_unique<pred::CacheTracker>(0, kGeo));
  }
  std::vector<Turn> turns(nthreads);
  const std::uint64_t window = g_window;
  const std::uint64_t interval = g_interval;

  std::vector<double> rates(nthreads, 0.0);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&trackers, &turns, &rates, t, nthreads,
                          bursts_per_thread, window, interval] {
      const pred::Address word = kLineBase + (t % 8) * 8;
      std::chrono::steady_clock::duration busy{};
      for (std::uint64_t r = 0; r < bursts_per_thread; ++r) {
        const std::size_t line = (t + r) % nthreads;
        std::atomic<std::uint64_t>& turn = turns[line].tenures;
        while (turn.load(std::memory_order_acquire) != r) {
          std::this_thread::yield();
        }
        const auto start = std::chrono::steady_clock::now();
        pred::CacheTracker& track = *trackers[line];
        track.claim_for_handoff(t);
        for (std::uint64_t i = 0; i < kBurst; ++i) {
          track.handle_access(word, pred::AccessType::kWrite, t, window,
                              interval);
        }
        busy += std::chrono::steady_clock::now() - start;
        turn.store(r + 1, std::memory_order_release);
      }
      rates[t] = static_cast<double>(bursts_per_thread * kBurst) /
                 std::chrono::duration<double>(busy).count();
    });
  }
  for (auto& th : threads) th.join();

  // Conservation: every delivered write is sampled (claims themselves
  // deliver no access).
  const std::uint64_t total =
      static_cast<std::uint64_t>(nthreads) * bursts_per_thread * kBurst;
  std::uint64_t sampled = 0;
  for (const auto& tr : trackers) sampled += tr->sampled_accesses();
  if (sampled != total) {
    std::fprintf(stderr,
                 "handoff conservation violated: %" PRIu64 " sampled of %"
                 PRIu64 "\n",
                 sampled, total);
    std::exit(1);
  }
  double rate = 0.0;
  for (double r : rates) rate += r;
  return rate;
}

// One warm-up pass, then the best of three measured passes.
double best_handoff(std::uint32_t nthreads, std::uint64_t bursts_per_thread) {
  run_handoff(nthreads, bursts_per_thread / 8 > 0 ? bursts_per_thread / 8 : 1);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    best = std::max(best, run_handoff(nthreads, bursts_per_thread));
  }
  return best;
}

// Phase 3: virtual-line fan-out. SeedFanOut keeps the fan-out the runtime
// used before per-word tables: every nomination copies the whole pointer
// vector and keeps the copy, and every sampled access scans all of the
// line's virtual lines, checks each range, and bumps a shared access
// counter on each covering line.
struct SeedVirtualLine {
  SeedVirtualLine(pred::Address s, std::size_t n) : start(s), size(n) {}

  void access(pred::Address a, pred::AccessType type, pred::ThreadId tid) {
    if (a < start || a >= start + size) return;
    accesses.fetch_add(1, std::memory_order_relaxed);
    if (history.access(tid, type) == pred::HistoryOutcome::kInvalidation) {
      invalidations.fetch_add(1, std::memory_order_relaxed);
    }
  }

  pred::PackedHistoryTable history;
  std::atomic<std::uint64_t> invalidations{0};
  std::atomic<std::uint64_t> accesses{0};
  const pred::Address start;
  const std::size_t size;
  // The seed's hot pair, origin line and kind, unused here: with them a
  // line is 72 bytes, so neighbouring lines in one deque share host lines.
  const pred::Address hot_x = 0;
  const pred::Address hot_y = 0;
  const std::size_t origin_line = 0;
  const std::uint8_t kind = 0;
};
static_assert(sizeof(SeedVirtualLine) == 72);

class SeedFanOut {
 public:
  void add_virtual_line(SeedVirtualLine* vl) {
    std::lock_guard<pred::Spinlock> g(lock_);
    auto next = std::make_unique<std::vector<SeedVirtualLine*>>();
    if (const auto* cur = snapshot_.load(std::memory_order_relaxed)) {
      *next = *cur;
    }
    next->push_back(vl);
    snapshot_.store(next.get(), std::memory_order_release);
    published_.push_back(std::move(next));
  }

  void update_virtual_lines(pred::Address addr, pred::AccessType type,
                            pred::ThreadId tid) {
    const auto* lines = snapshot_.load(std::memory_order_acquire);
    if (lines == nullptr) return;
    for (SeedVirtualLine* vl : *lines) vl->access(addr, type, tid);
  }

 private:
  pred::Spinlock lock_;
  std::atomic<const std::vector<SeedVirtualLine*>*> snapshot_{nullptr};
  std::vector<std::unique_ptr<std::vector<SeedVirtualLine*>>> published_;
};

/// The virtual lines the predictor nominates over lines 0 and 1: the
/// double line [0, 128) and a shifted line at each word offset of line 0.
std::vector<std::pair<pred::Address, std::size_t>> fanout_placements() {
  std::vector<std::pair<pred::Address, std::size_t>> out;
  out.emplace_back(kLineBase, 2 * kGeo.line_size);
  for (std::size_t w = 1; w < kGeo.words_per_line(); ++w) {
    out.emplace_back(kLineBase + w * kGeo.word_size, kGeo.line_size);
  }
  return out;
}

/// Thread t's slot: line t % 2, word t / 2.
pred::Address fanout_slot(std::uint32_t t) {
  return kLineBase + (t % 2) * kGeo.line_size + (t / 2 % 8) * kGeo.word_size;
}

/// Lines 0 and 1, tracked with prediction settled; the two fan-outs below
/// add their virtual lines.
struct TrackedPair {
  std::array<std::unique_ptr<pred::CacheTracker>, 2> lines;
  TrackedPair() {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      lines[i] = std::make_unique<pred::CacheTracker>(i, kGeo);
      lines[i]->settle_prediction();
    }
  }
  std::uint64_t sampled() const {
    return lines[0]->sampled_accesses() + lines[1]->sampled_accesses();
  }
};

/// The production fan-out: per-word tables inside the trackers.
struct TableFan : TrackedPair {
  pred::VirtualLineStore vls{kGeo};
  TableFan() {
    for (const auto& [start, size] : fanout_placements()) {
      const pred::VirtualLineTracker& vl =
          *vls.add(start, size, pred::VirtualLineTracker::Kind::kShifted,
                   start, start + size - kGeo.word_size);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::uint32_t words =
            vl.covered_words(i * kGeo.line_size, kGeo);
        if (words != 0) lines[i]->add_virtual_line(vl, words);
      }
    }
  }
  void access(std::size_t line, pred::Address addr, pred::ThreadId tid,
              std::uint64_t window, std::uint64_t interval) {
    pred::CacheTracker& t = *lines[line];
    if (t.handle_access(addr, pred::AccessType::kWrite, tid, window, interval)
            .sampled) {
      t.update_virtual_lines(kGeo.word_in_line(addr), pred::AccessType::kWrite,
                             tid);
    }
  }
};

struct SeedFan : TrackedPair {
  std::deque<SeedVirtualLine> vls;
  std::array<SeedFanOut, 2> fanout;
  SeedFan() {
    for (const auto& [start, size] : fanout_placements()) {
      vls.emplace_back(start, size);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const pred::Address line_start = i * kGeo.line_size;
        if (start < line_start + kGeo.line_size && line_start < start + size) {
          fanout[i].add_virtual_line(&vls.back());
        }
      }
    }
  }
  void access(std::size_t line, pred::Address addr, pred::ThreadId tid,
              std::uint64_t window, std::uint64_t interval) {
    if (lines[line]
            ->handle_access(addr, pred::AccessType::kWrite, tid, window,
                            interval)
            .sampled) {
      fanout[line].update_virtual_lines(addr, pred::AccessType::kWrite, tid);
    }
  }
};

/// One pass: the threads start together and each times its own loop, so a
/// thread the host delays before or after its loop does not stretch the
/// others' time. Returns the sum of the threads' rates.
template <typename Fan>
double run_fanout(std::uint32_t nthreads, std::uint64_t writes_per_thread) {
  Fan fan;
  const std::uint64_t window = g_window;
  const std::uint64_t interval = g_interval;

  std::vector<double> rates(nthreads, 0.0);
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      const pred::Address slot = fanout_slot(t);
      const std::size_t line = kGeo.line_index(slot);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < nthreads) {
        std::this_thread::yield();
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
        fan.access(line, slot, t, window, interval);
      }
      rates[t] = static_cast<double>(writes_per_thread) /
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(nthreads) * writes_per_thread;
  if (fan.sampled() != total) {
    std::fprintf(stderr, "fanout conservation violated: %" PRIu64
                 " sampled of %" PRIu64 "\n", fan.sampled(), total);
    std::exit(1);
  }
  double rate = 0.0;
  for (double r : rates) rate += r;
  return rate;
}

// One warm-up pass, then the best of three measured passes.
template <typename Fan>
double best_fanout(std::uint32_t nthreads, std::uint64_t writes_per_thread) {
  run_fanout<Fan>(nthreads, writes_per_thread / 8 > 0 ? writes_per_thread / 8
                                                      : 1);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    best = std::max(best, run_fanout<Fan>(nthreads, writes_per_thread));
  }
  return best;
}

// The layout before history words were packed by anchor line: each
// virtual line on a host line of its own, holding its history word and an
// invalidation counter that every covering thread's fetch_add writes,
// reached through a per-word fan-out table like the production one.
struct alignas(pred::kCacheLineSize) OwnLineVirtualLine {
  pred::PackedHistoryTable history;
  std::atomic<std::uint64_t> invalidations{0};
};

class OwnLineFanOut {
 public:
  void add_virtual_line(OwnLineVirtualLine* vl, std::uint32_t words) {
    entries_.push_back({words, vl});
  }

  void update_virtual_lines(std::size_t word, pred::AccessType type,
                            pred::ThreadId tid) {
    const std::uint32_t bit = std::uint32_t{1} << word;
    for (const Entry& e : entries_) {
      if ((e.words & bit) != 0 && e.vl->history.access(tid, type) ==
                                      pred::HistoryOutcome::kInvalidation) {
        e.vl->invalidations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Entry {
    std::uint32_t words;
    OwnLineVirtualLine* vl;
  };
  std::vector<Entry> entries_;  ///< filled before any access
};

/// The adjacent row's coverage over lines 0..2 (line 1 is written): shifted
/// lines at five offsets anchored on lines 0 and 1, and the double line
/// [0, 128).
std::vector<std::pair<pred::Address, std::size_t>> adjacent_placements() {
  std::vector<std::pair<pred::Address, std::size_t>> out;
  for (std::size_t anchor = 0; anchor < 2; ++anchor) {
    for (std::size_t w = 2; w <= 6; ++w) {
      out.emplace_back(kLineBase + anchor * kGeo.line_size + w * kGeo.word_size,
                       kGeo.line_size);
    }
  }
  out.emplace_back(kLineBase, 2 * kGeo.line_size);
  return out;
}

/// Line 1, tracked with prediction settled.
struct HotLine {
  pred::CacheTracker line{1, kGeo};
  HotLine() { line.settle_prediction(); }
};

struct PackedAdjacent : HotLine {
  pred::VirtualLineStore vls{kGeo};
  PackedAdjacent() {
    for (const auto& [start, size] : adjacent_placements()) {
      const pred::VirtualLineTracker& vl =
          *vls.add(start, size, pred::VirtualLineTracker::Kind::kShifted,
                   start, start + size - kGeo.word_size);
      line.add_virtual_line(vl, vl.covered_words(kGeo.line_size, kGeo));
    }
  }
  void fan_out(std::size_t word, pred::AccessType type, pred::ThreadId tid) {
    line.update_virtual_lines(word, type, tid);
  }
};

struct OwnLineAdjacent : HotLine {
  std::deque<OwnLineVirtualLine> vls;
  OwnLineFanOut fanout;
  OwnLineAdjacent() {
    for (const auto& [start, size] : adjacent_placements()) {
      OwnLineVirtualLine& vl = vls.emplace_back();
      std::uint32_t words = 0;
      for (std::size_t k = 0; k < kGeo.words_per_line(); ++k) {
        const pred::Address a = kGeo.line_size + k * kGeo.word_size;
        if (a >= start && a < start + size) words |= std::uint32_t{1} << k;
      }
      fanout.add_virtual_line(&vl, words);
    }
  }
  void fan_out(std::size_t word, pred::AccessType type, pred::ThreadId tid) {
    fanout.update_virtual_lines(word, type, tid);
  }
};

/// CPUs the calling thread may run on, in order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

struct AdjacentPass {
  double ns_per_access;  ///< the two threads' mean
  bool overlapped;       ///< the loops overlapped for 90% of the longer
};

/// One pass of the adjacent row: threads 0 and 1 each make `pairs`
/// read+write pairs on words 3 and 4 of line 1, each access fanned out.
template <typename Layout>
AdjacentPass run_adjacent(std::uint64_t pairs, const std::vector<int>& cpus) {
  Layout layout;
  const std::uint64_t window = g_window;
  const std::uint64_t interval = g_interval;
  using Clock = std::chrono::steady_clock;
  std::array<Clock::time_point, 2> begin{};
  std::array<Clock::time_point, 2> end{};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      if (cpus.size() >= 2) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[t], &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      }
      const std::size_t word = 3 + t;
      const pred::Address addr = kGeo.line_size + word * kGeo.word_size;
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < 2) {
      }
      begin[t] = Clock::now();
      for (std::uint64_t i = 0; i < pairs; ++i) {
        for (pred::AccessType type :
             {pred::AccessType::kRead, pred::AccessType::kWrite}) {
          if (layout.line.handle_access(addr, type, t, window, interval)
                  .sampled) {
            layout.fan_out(word, type, t);
          }
        }
      }
      end[t] = Clock::now();
    });
  }
  for (auto& th : threads) th.join();
  if (layout.line.sampled_accesses() != 4 * pairs) {
    std::fprintf(stderr, "adjacent conservation violated: %" PRIu64
                 " sampled of %" PRIu64 "\n",
                 layout.line.sampled_accesses(), 4 * pairs);
    std::exit(1);
  }
  double ns = 0.0;
  double longest = 0.0;
  for (std::uint32_t t = 0; t < 2; ++t) {
    const double d = std::chrono::duration<double, std::nano>(end[t] - begin[t])
                         .count();
    ns += d / static_cast<double>(2 * pairs) / 2.0;
    longest = std::max(longest, d);
  }
  const double overlap = std::chrono::duration<double, std::nano>(
                             std::min(end[0], end[1]) -
                             std::max(begin[0], begin[1]))
                             .count();
  return {ns, overlap >= 0.9 * longest};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median ns/access over the kept passes (all passes when none kept).
struct AdjacentResult {
  double ns;
  int kept;
};
AdjacentResult summarize(const std::vector<AdjacentPass>& passes) {
  std::vector<double> kept;
  std::vector<double> all;
  for (const AdjacentPass& p : passes) {
    all.push_back(p.ns_per_access);
    if (p.overlapped) kept.push_back(p.ns_per_access);
  }
  if (kept.empty()) return {median(all), 0};
  return {median(kept), static_cast<int>(kept.size())};
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t writes = 250'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      writes = std::strtoull(argv[i], nullptr, 10);
      if (writes == 0) {
        std::fprintf(stderr,
                     "usage: %s [writes_per_thread > 0] [--json FILE]\n",
                     argv[0]);
        return 1;
      }
    }
  }

  std::printf("tracked-path ablation: one hot line, fully sampled, %" PRIu64
              " writes/thread\n\n",
              writes);
  std::printf("%8s %18s %18s %9s\n", "threads", "spin aps", "lockfree aps",
              "speedup");

  pred::bench::JsonWriter json;
  for (std::uint32_t t : kThreadCounts) {
    // Warm-up pass, then the measured pass, per mode.
    run_mode<SeedTracker>(t, writes / 8);
    const double spin = run_mode<SeedTracker>(t, writes);
    run_mode<pred::CacheTracker>(t, writes / 8);
    const double lf = run_mode<pred::CacheTracker>(t, writes);
    const double speedup = lf / spin;
    std::printf("%8u %18.0f %18.0f %8.2fx\n", t, spin, lf, speedup);
    char key[32];
    std::snprintf(key, sizeof(key), "spin_t%u_aps", t);
    json.add(key, spin);
    std::snprintf(key, sizeof(key), "lockfree_t%u_aps", t);
    json.add(key, lf);
    std::snprintf(key, sizeof(key), "speedup_t%u", t);
    json.add(key, speedup);
  }
  const std::uint64_t bursts = writes / 64 > 0 ? writes / 64 : 1;
  std::printf("\nlock handoff: ownership rotates in 64-write tenures, %"
              PRIu64 " tenures/thread\n\n",
              bursts);
  std::printf("%8s %18s\n", "threads", "aps");
  for (std::uint32_t t : kThreadCounts) {
    const double aps = best_handoff(t, bursts);
    std::printf("%8u %18.0f\n", t, aps);
    char key[40];
    std::snprintf(key, sizeof(key), "handoff_t%u_aps", t);
    json.add(key, aps);
  }

  std::printf("\nvirtual-line fan-out: two tracked lines, %zu virtual "
              "lines, %" PRIu64 " writes/thread\n\n",
              fanout_placements().size(), writes);
  std::printf("%8s %18s %18s %9s\n", "threads", "seed aps", "table aps",
              "speedup");
  for (std::uint32_t t : {1u, 2u, 4u, 8u}) {
    const double seed = best_fanout<SeedFan>(t, writes);
    const double table = best_fanout<TableFan>(t, writes);
    const double speedup = table / seed;
    std::printf("%8u %18.0f %18.0f %8.2fx\n", t, seed, table, speedup);
    char key[40];
    std::snprintf(key, sizeof(key), "fanout_seed_t%u_aps", t);
    json.add(key, seed);
    std::snprintf(key, sizeof(key), "fanout_table_t%u_aps", t);
    json.add(key, table);
    std::snprintf(key, sizeof(key), "fanout_speedup_t%u", t);
    json.add(key, speedup);
  }

  // Pairs per thread: a quarter of the writes, so each thread makes about
  // half as many accesses as a fan-out pass.
  const std::uint64_t pairs = writes / 4 > 0 ? writes / 4 : 1;
  const std::vector<int> cpus = allowed_cpus();
  std::printf("\nadjacent fan-out: two threads, read+write pairs on adjacent "
              "words, %zu virtual lines, %" PRIu64 " pairs/thread%s\n\n",
              adjacent_placements().size(), pairs,
              cpus.size() >= 2 ? ", pinned" : "");
  constexpr int kAdjacentPasses = 7;
  run_adjacent<PackedAdjacent>(pairs / 8 > 0 ? pairs / 8 : 1, cpus);
  run_adjacent<OwnLineAdjacent>(pairs / 8 > 0 ? pairs / 8 : 1, cpus);
  std::vector<AdjacentPass> packed_passes;
  std::vector<AdjacentPass> own_passes;
  for (int pass = 0; pass < kAdjacentPasses; ++pass) {
    packed_passes.push_back(run_adjacent<PackedAdjacent>(pairs, cpus));
    own_passes.push_back(run_adjacent<OwnLineAdjacent>(pairs, cpus));
  }
  const AdjacentResult packed = summarize(packed_passes);
  const AdjacentResult own = summarize(own_passes);
  const double adjacent_speedup = own.ns / packed.ns;
  std::printf("%8s %18s %18s %9s\n", "threads", "own-line ns", "packed ns",
              "speedup");
  std::printf("%8u %18.1f %18.1f %8.2fx   (kept %d and %d of %d passes)\n",
              2u, own.ns, packed.ns, adjacent_speedup, own.kept, packed.kept,
              kAdjacentPasses);
  json.add("fanout_adjacent_ownline_ns", own.ns);
  json.add("fanout_adjacent_packed_ns", packed.ns);
  json.add("fanout_adjacent_kept_passes",
           static_cast<double>(std::min(own.kept, packed.kept)));
  json.add("fanout_adjacent_speedup_t2", adjacent_speedup);

  if (!json_path.empty()) {
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "json: %s\n", json_path.c_str());
  }
  return 0;
}
