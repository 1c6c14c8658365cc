// Workload `churn`: a closed-loop thread-pool server. nproc-2 worker slots
// (the main thread and the monitor's aggregator take the other two) each
// run one short-lived OS thread per task and start the next task as soon as
// one ends, so kTasks threads pass through one session. A task registers
// its thread, makes a seeded mix of accesses over a packed per-task counter
// array (the planted false sharing), a read-only table and a lock word
// guarded with sync/handoff, and exits. The monitor runs, and every
// kPublishEvery tasks Session::publish() feeds Collector::ingest_frame.
// Runtime metadata here scales with threads-ever, not threads-live.
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "collect/collector.hpp"
#include "common/prng.hpp"
#include "monitor/snapshot_merge.hpp"
#include "report_io/snapshot_json.hpp"
#include "runtime/report.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kTasks = 1500;
constexpr std::uint32_t kPublishEvery = 100;
constexpr std::uint32_t kMeanAccesses = 3000;
constexpr std::uint32_t kTableWords = 512;
constexpr std::uint32_t kLockEvery = 32;
constexpr int kNativeReps = 3;

const char* const kCounterSite = "churn_server.cc:counters";
const char* const kTableSite = "churn_server.cc:table";
const char* const kLockSite = "churn_server.cc:lock";

struct Task {
  std::uint32_t accesses = 0;
  std::uint64_t seed = 0;
};

struct Lock {
  std::atomic<std::uint64_t> word{0};
  std::uint64_t total = 0;
};

/// The shared state one phase runs over: session-allocated when
/// instrumented, plain memory when native.
struct Shared {
  std::uint64_t* counters = nullptr;  ///< one 8-byte slot per task, packed
  const std::uint64_t* table = nullptr;
  Lock* lock = nullptr;
};

std::vector<Task> plan(std::uint64_t seed) {
  pred::Xorshift64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Task> tasks(kTasks);
  for (Task& t : tasks) {
    t.accesses = kMeanAccesses / 2 +
                 static_cast<std::uint32_t>(rng.next_below(kMeanAccesses));
    t.seed = rng.next() | 1;
  }
  return tasks;
}

/// One task's body. `rec(addr, type)` receives every access the task makes
/// (a no-op natively), `sync(acquire)` every lock acquire (true) and
/// release (false). Returns the number of accesses made.
template <typename Rec, typename Sync>
std::uint64_t task_body(const Task& task, std::uint32_t index,
                        const Shared& sh, Rec&& rec, Sync&& sync) {
  pred::Xorshift64 rng(task.seed);
  std::uint64_t* mine = &sh.counters[index];
  std::uint64_t sum = 0, n = 0;
  for (std::uint32_t j = 0; j < task.accesses; ++j) {
    if (j % kLockEvery == kLockEvery - 1) {
      std::uint64_t expected = 0;
      while (!sh.lock->word.compare_exchange_weak(
          expected, 1, std::memory_order_acquire)) {
        expected = 0;
        std::this_thread::yield();
      }
      rec(&sh.lock->word, pred::AccessType::kWrite);
      sync(true);
      rec(&sh.lock->total, pred::AccessType::kRead);
      sh.lock->total += 1;
      rec(&sh.lock->total, pred::AccessType::kWrite);
      rec(&sh.lock->word, pred::AccessType::kWrite);
      sh.lock->word.store(0, std::memory_order_release);
      sync(false);
      n += 4;
    } else if (rng.next() & 1) {
      rec(mine, pred::AccessType::kRead);
      *mine += 1;
      rec(mine, pred::AccessType::kWrite);
      n += 2;
    } else {
      const std::uint64_t* word = &sh.table[rng.next_below(kTableWords)];
      rec(word, pred::AccessType::kRead);
      sum += *word;
      n += 1;
    }
  }
  *mine += sum & 1;
  return n;
}

/// The closed loop: `slots` threads at a time, a fresh OS thread per task.
/// `body(i)` runs task i on its thread; `between(done)` runs on the calling
/// thread after each completion, once the freed slot has its next task.
/// Returns per-task lifetimes in microseconds (spawn to body return).
template <typename Body, typename Between>
std::vector<double> serve(std::uint32_t slots, Body&& body,
                          Between&& between) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint32_t> finished;
  std::vector<std::thread> threads(slots);
  std::vector<Clock::time_point> spawn(kTasks), end(kTasks);
  std::uint32_t next = 0;
  auto start = [&](std::uint32_t slot) {
    const std::uint32_t i = next++;
    spawn[i] = Clock::now();
    threads[slot] = std::thread([&, slot, i] {
      body(i);
      end[i] = Clock::now();
      {
        std::lock_guard<std::mutex> g(mu);
        finished.push_back(slot);
      }
      cv.notify_one();
    });
  };
  for (std::uint32_t s = 0; s < slots && next < kTasks; ++s) start(s);
  for (std::uint32_t done = 0; done < kTasks;) {
    std::vector<std::uint32_t> ready;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return !finished.empty(); });
      ready.swap(finished);
    }
    for (std::uint32_t slot : ready) {
      threads[slot].join();
      if (next < kTasks) start(slot);
      between(++done);
    }
  }
  std::vector<double> us(kTasks);
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    us[i] = std::chrono::duration<double, std::micro>(end[i] - spawn[i])
                .count();
  }
  return us;
}

bool mentions(const std::string& label, const char* site) {
  return label.find(site) != std::string::npos;
}

}  // namespace

void run_churn(Round& round) {
  Tracer& tr = round.tracer();
  const Options& opt = round.options();
  const std::uint32_t slots = opt.nproc > 3 ? opt.nproc - 2 : 1;
  round.set("bench.worker_slots", slots);

  std::vector<Task> tasks;
  std::unique_ptr<pred::Session> session;
  std::unique_ptr<pred::Collector> collector;
  Shared sh;
  const double setup = tr.time("setup", [&] {
    tasks = plan(opt.seed);
    tr.time("api.session_setup", [&] {
      session = std::make_unique<pred::Session>();
      collector = std::make_unique<pred::Collector>();
    });
    pred::Session& s = *session;
    sh.counters = static_cast<std::uint64_t*>(s.alloc(
        kTasks * sizeof(std::uint64_t), s.intern_frames({kCounterSite})));
    auto* table = static_cast<std::uint64_t*>(s.alloc(
        kTableWords * sizeof(std::uint64_t), s.intern_frames({kTableSite})));
    sh.lock = new (s.alloc(sizeof(Lock), s.intern_frames({kLockSite}))) Lock;
    std::memset(sh.counters, 0, kTasks * sizeof(std::uint64_t));
    pred::Xorshift64 rng(opt.seed);
    for (std::uint32_t i = 0; i < kTableWords; ++i) table[i] = rng.next();
    sh.table = table;
    tr.time("monitor.start", [&] { s.monitor().start(); });
  });

  // Native phase: the same tasks on plain memory, no session; it is short,
  // so it runs kNativeReps times and the median counts.
  std::vector<std::uint64_t> n_counters(kTasks, 0);
  std::vector<std::uint64_t> n_table(sh.table, sh.table + kTableWords);
  Lock n_lock;
  const Shared native{n_counters.data(), n_table.data(), &n_lock};
  std::vector<double> native_runs;
  for (int r = 0; r < kNativeReps; ++r) {
    native_runs.push_back(tr.time("native.serve", [&] {
      serve(
          slots,
          [&](std::uint32_t i) {
            task_body(tasks[i], i, native,
                      [](const void*, pred::AccessType) {}, [](bool) {});
          },
          [](std::uint32_t) {});
    }));
  }
  const double native_s = median(native_runs);

  // Instrumented phase.
  pred::Session& s = *session;
  std::atomic<std::uint64_t> accesses{0};
  std::mutex probe_mu;
  RecordProbe probe(s);
  double publish_s = 0, frame_bytes = 0, ingest_s = 0, frames = 0;
  auto publish = [&] {
    std::string frame;
    publish_s += tr.time("trace.publish", [&] { frame = s.publish(); });
    frame_bytes += static_cast<double>(frame.size());
    bool ok = false;
    ingest_s += tr.time("collect.ingest",
                        [&] { ok = collector->ingest_frame(frame); });
    round.check(ok, "collector rejected a snapshot frame");
    frames += 1;
    round.max("peak_metadata_mb",
              static_cast<double>(s.metadata_bytes()) / 1e6);
  };
  round.check(collector->ingest_frame(s.hello_frame()),
              "collector rejected the hello frame");
  std::vector<double> lifetimes;
  const double live_s = tr.time("workloads.serve", [&] {
    lifetimes = serve(
        slots,
        [&](std::uint32_t i) {
          std::uint64_t n = 0;
          {
            pred::ScopedThread guard(s);
            const pred::ThreadId tid = pred::ThreadContext::tid();
            auto sync = [&](bool acquire) {
              if (acquire) {
                s.handoff(&sh.lock->total, sizeof sh.lock->total, tid);
              } else {
                s.sync(tid);
              }
            };
            if (opt.trace) {
              RecordProbe mine(s);
              n = task_body(
                  tasks[i], i, sh,
                  [&](const void* p, pred::AccessType t) {
                    mine.record(reinterpret_cast<pred::Address>(p), t, tid,
                                8);
                  },
                  sync);
              std::lock_guard<std::mutex> g(probe_mu);
              probe.merge(mine);
            } else {
              n = task_body(
                  tasks[i], i, sh,
                  [&](const void* p, pred::AccessType t) {
                    s.record(p, t, tid, 8);
                  },
                  sync);
            }
          }
          accesses.fetch_add(n, std::memory_order_relaxed);
        },
        [&](std::uint32_t done) {
          if (done % kPublishEvery == 0 || done == kTasks) publish();
        });
  });
  round.check(collector->ingest_frame(s.goodbye_frame()),
              "collector rejected the goodbye frame");

  std::uint64_t expected_total = 0;
  for (const Task& t : tasks) expected_total += t.accesses / kLockEvery;
  round.check(sh.lock->total == expected_total &&
                  n_lock.total == kNativeReps * expected_total,
              "lock-protected total lost an update");

  pred::MonitorSnapshot snap;
  const double snapshot_s =
      tr.time("monitor.snapshot", [&] { snap = s.monitor().snapshot(); });
  tr.time("monitor.stop", [&] { s.monitor().stop(); });

  pred::Report report;
  double report_s = build_report(round, s, &report);
  pred::FleetRollup rollup;
  std::size_t rollup_bytes = 0;
  const double rollup_s = median_seconds(kReportReps, [&] {
    tr.time("collect.rollup", [&] {
      rollup = collector->rollup();
      rollup_bytes = pred::format_rollup(rollup).size() +
                     pred::rollup_json(rollup).size();
    });
  });
  round.add("report_io.bytes", static_cast<double>(rollup_bytes));
  report_s += rollup_s;

  // The planted line must reach both the report and the fleet rollup; the
  // read-only table and the lock word (true sharing) must not be reported
  // as false sharing.
  const auto& cs = s.runtime().callsites();
  const bool in_report =
      pred::wl::report_mentions_site(report, cs, kCounterSite);
  bool in_rollup = false;
  for (const auto& site : rollup.sites) {
    in_rollup = in_rollup || mentions(site.label, kCounterSite);
  }
  round.check(in_report, "planted counter line missing from the report");
  round.check(in_rollup, "planted counter line missing from the fleet rollup");
  round.add("sites.expected", 2);
  round.add("sites.found", (in_report ? 1 : 0) + (in_rollup ? 1 : 0));
  for (const char* clean : {kTableSite, kLockSite}) {
    const bool flagged = pred::wl::report_mentions_site(report, cs, clean);
    round.add("clean.kernels", 1);
    round.add("clean.passed", flagged ? 0 : 1);
    round.add("false_positives", flagged ? 1 : 0);
  }

  std::uint64_t produced = 0, dropped = 0;
  for (const auto& ring : snap.rings) {
    produced += ring.produced;
    dropped += ring.dropped;
  }
  const pred::Collector::Stats cstats = collector->stats();
  account_session(round, s, accesses.load(), &report);
  if (opt.trace) {
    probe.finish().report(round);
    alloc_probe(round, s);
  }

  round.set("setup_s", setup);
  round.set("slowdown_x", live_s / native_s);
  round.set("accesses_per_s", static_cast<double>(accesses.load()) / live_s);
  round.set("report_s", report_s);
  round.set("api.task_p50_us", quantile(lifetimes, 0.50));
  round.set("api.task_p99_us", quantile(lifetimes, 0.99));
  round.set("api.tasks", kTasks);
  round.set("monitor.events_seen", static_cast<double>(snap.events_seen));
  round.set("monitor.rings", static_cast<double>(snap.rings.size()));
  round.set("monitor.snapshot_ms", snapshot_s * 1e3);
  round.set("monitor.event_drop_frac",
            produced ? static_cast<double>(dropped) / produced : 0.0);
  round.set("trace.publish_us", publish_s * 1e6 / frames);
  round.set("trace.frame_bytes", frame_bytes / frames);
  round.set("collect.ingest_us", ingest_s * 1e6 / frames);
  round.set("collect.frames", static_cast<double>(cstats.frames_ingested));
  round.set("collect.rejected", static_cast<double>(cstats.frames_rejected));
  round.set("collect.rollup_ms", rollup_s * 1e3);
}

}  // namespace perfbench
