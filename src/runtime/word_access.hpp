// Per-word access histogram (Section 2.3.2): for every word of a tracked
// cache line, how many reads and writes it received and by which thread.
// Once a second thread touches a word the word is marked *shared* and thread
// attribution stops — this is exactly how the paper separates true sharing
// (hot shared words) from false sharing (hot words owned by different
// threads).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"

namespace pred {

struct WordAccess {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Owning thread, or kSharedWord once >1 thread has touched this word, or
  /// kInvalidThread while untouched.
  ThreadId owner = kInvalidThread;

  static constexpr ThreadId kSharedWord = kInvalidThread - 1;

  bool touched() const { return reads + writes != 0; }
  bool shared() const { return owner == kSharedWord; }
  std::uint64_t total() const { return reads + writes; }

  void record(ThreadId tid, AccessType type) {
    if (type == AccessType::kWrite) {
      ++writes;
    } else {
      ++reads;
    }
    if (owner == kInvalidThread) {
      owner = tid;
    } else if (owner != tid && owner != kSharedWord) {
      owner = kSharedWord;
    }
  }
};

/// The one part of a word's histogram entry that every thread touching the
/// word shares: its owner, which follows the monotone state machine
/// kInvalidThread → first-owner tid → kSharedWord via CAS. Every transition
/// moves strictly forward (the shared state is absorbing), so racing
/// recorders can never resurrect single-owner status and the
/// false/true-sharing classification of Section 2.3.2 stays sound without a
/// lock. The word's read and write counts are owner-exclusive instead: each
/// thread counts its own in its stripe of the tracker
/// (CacheTracker::Stripe), and a snapshot sums them.
struct AtomicWordAccess {
  std::atomic<ThreadId> owner{kInvalidThread};

  /// Moves the owner forward for an access by `tid`: one load, and a CAS
  /// only on a transition. Once the word is owned by `tid` or shared, no
  /// RMW at all.
  void claim(ThreadId tid) {
    ThreadId o = owner.load(std::memory_order_relaxed);
    while (o != tid && o != WordAccess::kSharedWord) {
      const ThreadId next =
          (o == kInvalidThread) ? tid : WordAccess::kSharedWord;
      if (owner.compare_exchange_weak(o, next, std::memory_order_relaxed)) {
        break;
      }
    }
  }

  void reset() { owner.store(kInvalidThread, std::memory_order_relaxed); }
};

}  // namespace pred
