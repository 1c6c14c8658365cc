// Cooperative fiber pool: a user-level threading library with no pthreads
// underneath. Exists to demonstrate the paper's Section 6 claim that
// PREDATOR's architecture works "across the software stack ... applications
// using different threading libraries": detection only needs logical thread
// identities and an access stream, so fibers multiplexed on one OS thread
// are detected exactly like kernel threads.
//
// Implementation: ucontext_t coroutines, round-robin scheduled, explicit
// yield(). Single OS thread; no locking needed.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace pred {

class FiberPool {
 public:
  explicit FiberPool(std::size_t stack_size = 256 * 1024);
  ~FiberPool();

  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

  /// Queues a fiber. Must be called before run().
  void spawn(std::function<void()> body);

  /// Runs all fibers round-robin until every one has finished. Fibers call
  /// FiberPool::yield() to hand the processor to the next fiber.
  void run();

  /// Runs all fibers with a seeded pseudo-random scheduler: at every step a
  /// xorshift64 stream picks which unfinished fiber resumes next. The same
  /// seed always produces the same schedule — this is what makes 256-"core"
  /// big-machine interleavings reproducible on one OS thread, and the
  /// property tests replay many seeds to prove interleaving-independence of
  /// the simulator's conservation invariants.
  void run_seeded(std::uint64_t seed);

  /// The exact resume order of the last run()/run_seeded() (one entry per
  /// fiber resume). Regression tests pin this to freeze the RNG stream.
  const std::vector<std::size_t>& schedule() const { return schedule_; }

  /// Yields from inside a fiber back to the scheduler. No-op if called
  /// outside a running pool.
  static void yield();

  /// Index of the currently running fiber, or SIZE_MAX outside a fiber.
  /// Usable as a logical ThreadId for instrumentation.
  static std::size_t current_fiber();

 private:
  struct Fiber {
    ucontext_t context{};
    std::vector<char> stack;
    std::function<void()> body;
    bool finished = false;
  };

  static void trampoline();

  void switch_to(std::size_t index);
  void prepare_contexts();

  std::size_t stack_size_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::size_t> schedule_;
  ucontext_t scheduler_context_{};
  std::size_t running_ = static_cast<std::size_t>(-1);
};

}  // namespace pred
