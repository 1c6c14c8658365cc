// Cache history table: the invalidation-counting automaton of
// Section 2.3.1. One instance exists per tracked physical line, and one per
// tracked *virtual* line during prediction verification (Section 3.4) — the
// rules are identical, which is why this is a standalone value type.
//
// The paper fixes the table at two entries; BoundedHistoryTable generalizes
// the same rules to K entries so the design point can be ablated
// (bench/ablation_history_depth). HistoryTable is the paper's K = 2.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "common/check.hpp"

namespace pred {

/// Outcome of feeding one access into the table.
enum class HistoryOutcome : std::uint8_t {
  kNoEvent,       ///< access recorded (or ignored), no coherence event
  kInvalidation,  ///< this write invalidated another thread's cached copy
};

template <int K>
class BoundedHistoryTable {
  static_assert(K >= 1 && K <= 64);

 public:
  /// Applies the paper's update rules for one access and reports whether it
  /// counts as a cache invalidation.
  ///
  /// Writes: a write is an invalidation iff any resident entry belongs to a
  /// *different* thread (entries are distinct by thread, so a full table
  /// always qualifies). Every invalidation resets the table to just the
  /// invalidating write.
  ///
  /// Reads: recorded only when they add a *new* thread to a non-full table;
  /// reads never invalidate. The paper leaves the pre-first-write (empty)
  /// state unspecified; we record reads into an empty table so that the
  /// sequence "T2 reads, T1 writes" counts the invalidation of T2's copy,
  /// matching what real coherence hardware does.
  HistoryOutcome access(ThreadId tid, AccessType type) {
    if (type == AccessType::kRead) {
      if (size_ < K && !contains(tid)) {
        entries_[size_++] = Entry{tid, AccessType::kRead};
      }
      return HistoryOutcome::kNoEvent;
    }
    // Write access.
    if (contains_other(tid)) {
      entries_[0] = Entry{tid, AccessType::kWrite};
      size_ = 1;
      return HistoryOutcome::kInvalidation;
    }
    entries_[0] = Entry{tid, AccessType::kWrite};
    size_ = 1;
    return HistoryOutcome::kNoEvent;
  }

  void reset() { size_ = 0; }

  int size() const { return size_; }
  ThreadId thread_at(int i) const { return entries_[i].tid; }
  AccessType type_at(int i) const { return entries_[i].type; }

 private:
  struct Entry {
    ThreadId tid = kInvalidThread;
    AccessType type = AccessType::kRead;
  };

  bool contains(ThreadId tid) const {
    for (int i = 0; i < size_; ++i) {
      if (entries_[i].tid == tid) return true;
    }
    return false;
  }
  bool contains_other(ThreadId tid) const {
    for (int i = 0; i < size_; ++i) {
      if (entries_[i].tid != tid) return true;
    }
    return false;
  }

  Entry entries_[K];
  int size_ = 0;
};

/// The paper's design point: two entries.
using HistoryTable = BoundedHistoryTable<2>;

/// Lock-free K = 2 history table: the same Section 2.3.1 automaton as
/// HistoryTable, with the whole table packed into a single 64-bit word so
/// one CAS applies an access's update rules atomically. The CAS *winner* is
/// the access that performed the transition, so it alone reports the
/// invalidation — concurrent writers serialize through the word without a
/// lock and every coherence event is counted exactly once.
///
/// Encoding (low to high bits):
///   [0..29]   entry 0 thread id        [30] entry 0 type (1 = write)
///   [31..60]  entry 1 thread id        [61] entry 1 type
///   [62..63]  size (0, 1 or 2 resident entries)
/// State 0 is the empty table. Thread ids occupy 30 bits; the runtime hands
/// out dense ids, so ~10^9 threads fit (checked on every access).
///
/// Accesses that do not change the table — reads of a resident thread,
/// reads into a full table, repeated writes by the sole resident writer —
/// retire with a plain load and no RMW at all, which is what makes a
/// single-owner hot line contention-free even while fully sampled.
class PackedHistoryTable {
 public:
  static constexpr ThreadId kMaxThread = (ThreadId{1} << 30) - 1;

  HistoryOutcome access(ThreadId tid, AccessType type) {
    PRED_CHECK(tid <= kMaxThread);
    std::uint64_t cur = state_.load(std::memory_order_relaxed);
    for (;;) {
      std::uint64_t next;
      HistoryOutcome out;
      if (type == AccessType::kRead) {
        // Reads fill empty slots with new threads and never invalidate.
        if (size_of(cur) >= 2 || contains(cur, tid)) {
          return HistoryOutcome::kNoEvent;
        }
        next = append_read(cur, tid);
        out = HistoryOutcome::kNoEvent;
      } else {
        // A write resets the table to just the writer; it invalidates iff
        // another thread's entry was resident.
        next = encode_write(tid);
        out = contains_other(cur, tid) ? HistoryOutcome::kInvalidation
                                       : HistoryOutcome::kNoEvent;
        if (next == cur) return out;  // already exactly {tid, W}: no RMW
      }
      if (state_.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return out;
      }
      // cur reloaded by the failed CAS; re-derive the transition from it.
    }
  }

  void reset() { state_.store(0, std::memory_order_relaxed); }

  // Snapshot accessors (each call reads the word once; use raw() to decode
  // one consistent state under concurrency).
  int size() const { return size_of(raw()); }
  ThreadId thread_at(int i) const { return entry_tid(raw(), i); }
  AccessType type_at(int i) const { return entry_type(raw(), i); }
  std::uint64_t raw() const { return state_.load(std::memory_order_acquire); }

  // --- static decode helpers (shared with tests) ---
  static int size_of(std::uint64_t s) { return static_cast<int>(s >> 62); }
  static ThreadId entry_tid(std::uint64_t s, int i) {
    return static_cast<ThreadId>((s >> (i == 0 ? 0 : 31)) & kMaxThread);
  }
  static AccessType entry_type(std::uint64_t s, int i) {
    return ((s >> (i == 0 ? 30 : 61)) & 1) != 0 ? AccessType::kWrite
                                                : AccessType::kRead;
  }

 private:
  static bool contains(std::uint64_t s, ThreadId tid) {
    const int n = size_of(s);
    for (int i = 0; i < n; ++i) {
      if (entry_tid(s, i) == tid) return true;
    }
    return false;
  }
  static bool contains_other(std::uint64_t s, ThreadId tid) {
    const int n = size_of(s);
    for (int i = 0; i < n; ++i) {
      if (entry_tid(s, i) != tid) return true;
    }
    return false;
  }
  static std::uint64_t encode_entry(ThreadId tid, AccessType type, int i) {
    const std::uint64_t e =
        static_cast<std::uint64_t>(tid) |
        (type == AccessType::kWrite ? (std::uint64_t{1} << 30) : 0);
    return e << (i == 0 ? 0 : 31);
  }
  static std::uint64_t encode_write(ThreadId tid) {
    return (std::uint64_t{1} << 62) | encode_entry(tid, AccessType::kWrite, 0);
  }
  static std::uint64_t append_read(std::uint64_t s, ThreadId tid) {
    const int n = size_of(s);
    return (s & ~(std::uint64_t{3} << 62)) |
           (static_cast<std::uint64_t>(n + 1) << 62) |
           encode_entry(tid, AccessType::kRead, n);
  }

  std::atomic<std::uint64_t> state_{0};
};

}  // namespace pred
