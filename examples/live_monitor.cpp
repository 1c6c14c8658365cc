// Live monitor demo: watch false sharing develop while the program runs.
//
// The quickstart bug (two threads ping-ponging counters on one cache line).
// The main thread prints a rolling monitor snapshot a few times during the
// run — escalations, invalidation totals, and the hot line with its
// allocation callsite appear *before* the workload finishes — then the
// final snapshot and the classic exit report. A snapshot reads the
// detector's trackers on demand, so there is nothing to start or stop.
//
// Build & run:  ./build/examples/live_monitor
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "api/predator.hpp"

int main() {
  pred::SessionOptions options;
  options.heap_size = 16 * 1024 * 1024;
  options.runtime.report_invalidation_threshold = 1;
  options.runtime.set_sampling_rate(1.0);
  options.monitor.top_k = 4;
  pred::Session session(options);

  auto* counters = static_cast<long*>(
      session.alloc(2 * sizeof(long), session.intern_frames({"live_monitor.cpp:counters"})));
  counters[0] = counters[1] = 0;

  std::atomic<bool> done{false};
  auto worker = [&session, counters](pred::ThreadId tid) {
    pred::ScopedThread guard(session, tid);
    for (int i = 0; i < 2'000'000; ++i) {
      session.record(&counters[tid], pred::AccessType::kRead, tid, 8);
      counters[tid] += 1;
      session.record(&counters[tid], pred::AccessType::kWrite, tid, 8);
    }
  };
  std::thread t0(worker, 0);
  std::thread t1([&] {
    worker(1);
    done.store(true, std::memory_order_release);
  });

  // The monitoring loop a long-running service would run: poll snapshots
  // without ever pausing the worker threads.
  int prints = 0;
  while (!done.load(std::memory_order_acquire) && prints < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::printf("--- live snapshot %d ---\n%s\n", ++prints,
                session.monitor().snapshot_text().c_str());
  }
  t0.join();
  t1.join();

  std::printf("--- final snapshot ---\n%s\n",
              session.monitor().snapshot_text().c_str());
  std::printf("--- exit report ---\n%s", session.report_text().c_str());
  return 0;
}
