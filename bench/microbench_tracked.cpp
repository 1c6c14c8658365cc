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
// Two further phases measure the sync-aware suppression fast path (the
// epoch/ownership word in front of the lock-free detail path):
//
//   handoff    line ownership rotates between threads in bursts, the
//              lock-handoff shape — each tenure claims via
//              claim_for_handoff then retires a same-owner write burst.
//              A turn counter per line passes the line from thread to
//              thread, so each tenure starts when the previous one on the
//              line ends and the schedule does not depend on the host.
//              `handoff_speedup_tN` = epoch-passing (suppressed) over the
//              PR 3 signature (full detail path): the suppression WIN.
//              Each thread sums the wall time of its tenures (waiting for a
//              turn is not counted), and each mode keeps the best of three
//              passes, so a pass a shared host slowed down does not decide
//              the ratio.
//   multiline  two threads alternate on each of T/2 lines with epochs
//              flowing but ownership never settling, so nearly every
//              access takes the suppression check and falls through.
//              `multiline_ratio_tN` = sync aps / base aps: the
//              FALL-THROUGH COST (≈1.0 means the check is free; below 1.0
//              the failed check is eating throughput).
//
// A last phase measures virtual-line fan-out, the step that forwards each
// sampled access to the virtual lines verifying a predicted placement:
//
//   fanout     two adjacent tracked lines, thread t writing its own 8-byte
//              slot (line t % 2, word t / 2), covered by the virtual lines
//              the predictor nominates for them: the double line and a
//              shifted line at each word offset. Full sampling, prediction
//              settled; each access runs the tracker, then the fan-out, as
//              Runtime::handle_tracked does for a sampled access.
//              `fanout_speedup_tN` = the per-word fan-out tables over
//              SeedFanOut below (a pointer vector scanned with a range
//              check per virtual line, a shared access counter per covering
//              line, and 72-byte lines that share host lines).
//
// Usage: microbench_tracked [writes_per_thread] [--json FILE]
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
// receiver's synthetic first write, run in BOTH modes so the histories
// match), retires a burst of same-owner writes, and passes the turn on.
// With `sync_mode` the writes carry the tenure's epoch and ride the
// suppression fast path; without, they take the PR 3 five-argument
// signature and walk the full sampled detail path. Every tenure has its
// line to itself, so ownership survives each one whatever the host's
// scheduling. Returns the aggregate accesses/s: the sum of the threads'
// rates, each over the wall time of its own tenures.
double run_handoff(bool sync_mode, std::uint32_t nthreads,
                   std::uint64_t bursts_per_thread) {
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
                          bursts_per_thread, window, interval, sync_mode] {
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
        // Epoch 0 is reserved ("this thread never synced"), so tenures
        // count from 1, exactly as Runtime::handle_sync would.
        const std::uint32_t epoch = static_cast<std::uint32_t>(r + 1);
        track.claim_for_handoff(t, epoch);
        for (std::uint64_t i = 0; i < kBurst; ++i) {
          if (sync_mode) {
            track.handle_access(word, pred::AccessType::kWrite, t, window,
                                interval, epoch);
          } else {
            track.handle_access(word, pred::AccessType::kWrite, t, window,
                                interval);
          }
        }
        busy += std::chrono::steady_clock::now() - start;
        turn.store(r + 1, std::memory_order_release);
      }
      rates[t] = static_cast<double>(bursts_per_thread * kBurst) /
                 std::chrono::duration<double>(busy).count();
    });
  }
  for (auto& th : threads) th.join();

  // Conservation: every delivered write is either sampled or suppressed
  // (claims themselves deliver no access), and with every tenure alone on
  // its line, a synced tenure suppresses all of its writes — except one
  // tenure in 65536 per thread, whose epoch's low 16 bits are zero, the
  // never-synced state (CacheTracker::pack_sync).
  const std::uint64_t total =
      static_cast<std::uint64_t>(nthreads) * bursts_per_thread * kBurst;
  const std::uint64_t unsynced =
      static_cast<std::uint64_t>(nthreads) * (bursts_per_thread >> 16) * kBurst;
  std::uint64_t sampled = 0;
  std::uint64_t suppressed = 0;
  for (const auto& tr : trackers) {
    sampled += tr->sampled_accesses();
    suppressed += tr->suppressed_accesses();
  }
  if (sampled + suppressed != total ||
      suppressed != (sync_mode ? total - unsynced : 0)) {
    std::fprintf(stderr,
                 "handoff conservation violated: %" PRIu64 " sampled + %"
                 PRIu64 " suppressed of %" PRIu64 "\n",
                 sampled, suppressed, total);
    std::exit(1);
  }
  double rate = 0.0;
  for (double r : rates) rate += r;
  return rate;
}

// One warm-up pass, then the best of three measured passes.
double best_handoff(bool sync_mode, std::uint32_t nthreads,
                    std::uint64_t bursts_per_thread) {
  run_handoff(sync_mode, nthreads,
              bursts_per_thread / 8 > 0 ? bursts_per_thread / 8 : 1);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    best = std::max(best, run_handoff(sync_mode, nthreads, bursts_per_thread));
  }
  return best;
}

// Phase 3: fall-through cost. Two threads alternate writes on each line
// (T/2 lines), every access carrying a live epoch — the suppression check
// runs on each access but ownership never stabilizes, so the fast path
// almost never hits and the measured difference against the five-argument
// signature is the pure cost of the extra load-and-CAS.
double run_multiline(bool sync_mode, std::uint32_t nthreads,
                     std::uint64_t writes_per_thread) {
  const std::uint32_t nlines = nthreads > 1 ? nthreads / 2 : 1;
  std::vector<std::unique_ptr<pred::CacheTracker>> trackers;
  trackers.reserve(nlines);
  for (std::uint32_t i = 0; i < nlines; ++i) {
    trackers.push_back(
        std::make_unique<pred::CacheTracker>(0, kGeo));
  }
  const std::uint64_t window = g_window;
  const std::uint64_t interval = g_interval;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&trackers, t, nlines, writes_per_thread, window,
                          interval, sync_mode] {
      pred::CacheTracker& track = *trackers[t % nlines];
      const pred::Address word = kLineBase + ((t / nlines) % 8) * 8;
      // One sync at thread start: the epoch is live (non-zero) for every
      // access, so the suppression gate is evaluated each time.
      const std::uint32_t epoch = 1;
      for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
        if (sync_mode) {
          track.handle_access(word, pred::AccessType::kWrite, t, window,
                              interval, epoch);
        } else {
          track.handle_access(word, pred::AccessType::kWrite, t, window,
                              interval);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();

  const std::uint64_t total =
      static_cast<std::uint64_t>(nthreads) * writes_per_thread;
  std::uint64_t sampled = 0;
  std::uint64_t suppressed = 0;
  for (const auto& tr : trackers) {
    sampled += tr->sampled_accesses();
    suppressed += tr->suppressed_accesses();
  }
  if (sampled + suppressed != total || (!sync_mode && suppressed != 0)) {
    std::fprintf(stderr,
                 "multiline conservation violated: %" PRIu64 " sampled + %"
                 PRIu64 " suppressed of %" PRIu64 "\n",
                 sampled, suppressed, total);
    std::exit(1);
  }
  return static_cast<double>(total) / secs;
}

// Phase 4: virtual-line fan-out. SeedFanOut keeps the fan-out the runtime
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
  std::deque<pred::VirtualLineTracker> vls;
  TableFan() {
    for (const auto& [start, size] : fanout_placements()) {
      vls.emplace_back(start, size, pred::VirtualLineTracker::Kind::kShifted,
                       0, start, start + size - kGeo.word_size);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::uint32_t words =
            vls.back().covered_words(i * kGeo.line_size, kGeo);
        if (words != 0) lines[i]->add_virtual_line(&vls.back(), words);
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

template <typename Fan>
double run_fanout(std::uint32_t nthreads, std::uint64_t writes_per_thread) {
  Fan fan;
  const std::uint64_t window = g_window;
  const std::uint64_t interval = g_interval;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&fan, t, writes_per_thread, window, interval] {
      const pred::Address slot = fanout_slot(t);
      const std::size_t line = kGeo.line_index(slot);
      for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
        fan.access(line, slot, t, window, interval);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();

  const std::uint64_t total =
      static_cast<std::uint64_t>(nthreads) * writes_per_thread;
  if (fan.sampled() != total) {
    std::fprintf(stderr, "fanout conservation violated: %" PRIu64
                 " sampled of %" PRIu64 "\n", fan.sampled(), total);
    std::exit(1);
  }
  return static_cast<double>(total) / secs;
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
  std::printf("%8s %18s %18s %9s\n", "threads", "base aps", "sync aps",
              "speedup");
  for (std::uint32_t t : kThreadCounts) {
    const double base = best_handoff(false, t, bursts);
    const double sync = best_handoff(true, t, bursts);
    const double speedup = sync / base;
    std::printf("%8u %18.0f %18.0f %8.2fx\n", t, base, sync, speedup);
    char key[40];
    std::snprintf(key, sizeof(key), "handoff_base_t%u_aps", t);
    json.add(key, base);
    std::snprintf(key, sizeof(key), "handoff_sync_t%u_aps", t);
    json.add(key, sync);
    std::snprintf(key, sizeof(key), "handoff_speedup_t%u", t);
    json.add(key, speedup);
  }

  std::printf("\nmulti-line fall-through: live epochs, unstable ownership, %"
              PRIu64 " writes/thread\n\n",
              writes);
  std::printf("%8s %18s %18s %9s\n", "threads", "base aps", "sync aps",
              "ratio");
  for (std::uint32_t t : kThreadCounts) {
    run_multiline(false, t, writes / 8);
    const double base = run_multiline(false, t, writes);
    run_multiline(true, t, writes / 8);
    const double sync = run_multiline(true, t, writes);
    const double ratio = sync / base;
    std::printf("%8u %18.0f %18.0f %8.2fx\n", t, base, sync, ratio);
    char key[40];
    std::snprintf(key, sizeof(key), "multiline_base_t%u_aps", t);
    json.add(key, base);
    std::snprintf(key, sizeof(key), "multiline_sync_t%u_aps", t);
    json.add(key, sync);
    std::snprintf(key, sizeof(key), "multiline_ratio_t%u", t);
    json.add(key, ratio);
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

  if (!json_path.empty()) {
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "json: %s\n", json_path.c_str());
  }
  return 0;
}
