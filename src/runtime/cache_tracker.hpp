// Detailed per-cache-line tracking, allocated lazily once a line's write
// count crosses TrackingThreshold (Section 2.4.1). Stores the two-entry
// history table, the invalidation counter, the per-word access histogram,
// and the per-line sampling state of Section 2.4.3.
//
// Tracked-path concurrency (see docs/architecture.md, "Tracked path
// concurrency"): the tracker runs precisely on the hottest, most
// falsely-shared lines, so one sampled access performs
//   - a division-free sampling decision on the calling OS thread's own
//     *stripe* — a host-line-padded block the thread owns exclusively, so
//     the clock tick and the sampled/invalidation counters are plain
//     relaxed load/store pairs (no lock-prefixed RMW, no shared line),
//   - one relaxed fetch_add on the word histogram (the only state genuinely
//     shared between threads that touch the same word) plus a monotone CAS
//     on the word's owner slot, and
//   - one CAS on the packed 64-bit history table, whose winner reports the
//     invalidation —
// and never takes a lock. The runtime resolves an access's line, word
// index and stripe once and hands all three in (Runtime::handle_tracked,
// handle_word below), so the tracker itself divides by nothing. Its
// references live outside the runtime: bench/microbench_tracked measures
// it against the seed's spinlock tracker, and tests/test_oracle.cpp checks
// single-OS-thread counts against a reference detector that samples by the
// same `n % interval < window` rule.
//
// Layout: the class is alignas(kCacheLineSize) and sized to a whole number
// of host lines (static_asserts below), so adjacent trackers — and the
// ShadowSpace arena slots that own them — never falsely share with each
// other; each per-thread sampling stripe is likewise padded to one host
// line. Inside the tracker, the first host line holds what every tracked
// access reads — the armed and prediction flags, the stripe-table and
// fan-out pointers and the virtual-line store — and no access writes it;
// the history word that sampled accesses CAS sits on the next line, so
// those CASes never invalidate the line the inline exits read. The stripe
// table and the fan-out table are one GrowOnlyTable type
// (runtime/grow_only_table.hpp): a header and its entries in one
// allocation, so a lookup is tracker → table → entry. A fan-out entry
// points straight at its virtual line's history word, which sits in a
// host-line block shared only with lines of the same anchor
// (runtime/virtual_line.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/cacheline.hpp"
#include "common/check.hpp"
#include "common/spinlock.hpp"
#include "runtime/config.hpp"
#include "runtime/grow_only_table.hpp"
#include "runtime/history_table.hpp"
#include "runtime/stripe_token.hpp"
#include "runtime/virtual_line.hpp"
#include "runtime/word_access.hpp"

namespace pred {

/// Division-free sampling clock: decides "is access number n inside the
/// first `window` of its `interval`?" by maintaining the base of the
/// current interval incrementally instead of the seed's `n % interval`
/// (the interval need not be a power of two, so the modulo was a hardware
/// divide on every tracked access).
///
/// Owner-exclusive: tick() is only ever called by the OS thread that
/// currently owns the enclosing stripe, so both fields advance with relaxed
/// load/store pairs — no RMW. The fields stay atomic because *readers*
/// (accessors, reports, reset_for_reuse) are cross-thread; a reset racing
/// the owner is detected by the resync branch below, which starts a fresh
/// interval instead of derailing the clock.
struct SampleClock {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> interval_begin{0};

  bool tick(std::uint64_t window, std::uint64_t interval) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    count.store(n + 1, std::memory_order_relaxed);
    std::uint64_t begin = interval_begin.load(std::memory_order_relaxed);
    std::uint64_t off = n - begin;
    if (off >= interval) [[unlikely]] {
      // Ticks arrive one by one, so the owner only ever lands exactly on
      // the interval boundary; any other offset (including the wrapped
      // `begin > n` case) means a concurrent reset — resync to n.
      begin = off == interval ? begin + interval : n;
      off = n - begin;
      interval_begin.store(begin, std::memory_order_relaxed);
    }
    return off < window;
  }

  /// tick() for an access the caller retires only if it is unsampled:
  /// ticks and returns true when access number n falls outside the window,
  /// and returns false with the clock untouched when tick() would sample
  /// it — including the interval-boundary and resync cases, which always
  /// land on offset 0.
  bool tick_unsampled(std::uint64_t window, std::uint64_t interval) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    const std::uint64_t off =
        n - interval_begin.load(std::memory_order_relaxed);
    if (off < window || off >= interval) return false;
    count.store(n + 1, std::memory_order_relaxed);
    return true;
  }

  void reset() {
    count.store(0, std::memory_order_relaxed);
    interval_begin.store(0, std::memory_order_relaxed);
  }
};

class alignas(kCacheLineSize) CacheTracker {
 public:
  /// Upper bound on words per line we support inline (covers line sizes up to
  /// 256 bytes at 8-byte words without a secondary allocation).
  static constexpr std::size_t kMaxWords = 32;

  /// One per-thread sampling stripe: a host-line-padded block owned by the
  /// one OS thread that holds its token, so every update is a relaxed
  /// load/store pair — cross-thread readers see atomic snapshots, and owner
  /// increments can never be lost. When the owner exits, the next thread to
  /// take the token inherits the stripe, clock and counts included. The
  /// runtime only carries a pointer to the calling thread's stripe from
  /// find_stripe() to the calls below.
  struct alignas(kCacheLineSize) Stripe {
    SampleClock clock;
    std::atomic<std::uint64_t> sampled_reads{0};
    std::atomic<std::uint64_t> sampled_writes{0};
    std::atomic<std::uint64_t> invalidations{0};
    /// Tracked writes issued after the line's prediction decision; they no
    /// longer touch the region's shared counter (see count_write).
    std::atomic<std::uint64_t> writes{0};

    /// Owner-exclusive increment: no lock-prefixed RMW.
    static void bump(std::atomic<std::uint64_t>& c) {
      c.store(c.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
    }
  };
  static_assert(sizeof(Stripe) == kCacheLineSize);

  /// `armed` gates the sampling clock: the runtime creates trackers
  /// disarmed and arms them once escalation bookkeeping completes, so
  /// accesses racing an in-flight escalation no longer consume sampling
  /// window positions (they count toward totals only). Standalone trackers
  /// default to armed.
  CacheTracker(std::size_t line_index, const LineGeometry& geometry,
               bool armed = true)
      : armed_(armed), line_index_(line_index), geometry_(geometry) {
    PRED_CHECK(geometry.words_per_line() <= kMaxWords);
  }

  ~CacheTracker() {
    StripeTable::destroy(stripe_table_.load(std::memory_order_relaxed));
    FanOutTable::destroy(fanout_.load(std::memory_order_relaxed));
  }

  CacheTracker(const CacheTracker&) = delete;
  CacheTracker& operator=(const CacheTracker&) = delete;

  /// What one tracked access did: whether it fell inside the sampling
  /// window (and was recorded in detail). The runtime uses `sampled` to
  /// decide virtual-line fan-out.
  struct AccessOutcome {
    bool sampled = false;
  };

  /// Records one access at `addr` (a byte of this line): handle_word on
  /// the word it falls in, divided out only if the access is sampled, and
  /// the calling thread's stripe. The trailing argument is a stub that is
  /// ignored: perfbench still passes Runtime::thread_epoch(tid), and the
  /// next change to the benchmark removes it.
  AccessOutcome handle_access(Address addr, AccessType type, ThreadId tid,
                              std::uint64_t sample_window,
                              std::uint64_t sample_interval,
                              std::uint32_t /*epoch (stub)*/ = 0) {
    return record([&] { return geometry_.word_in_line(addr); }, type, tid,
                  find_stripe(), sample_window, sample_interval);
  }

  /// Records one access to word `word` of the line. `stripe` is the calling
  /// thread's stripe as find_stripe() returned it; nullptr registers one
  /// when the access needs it. Accesses that arrive while the line is still
  /// being escalated are counted but leave the sampling phase untouched.
  AccessOutcome handle_word(std::size_t word, AccessType type, ThreadId tid,
                            Stripe* stripe, std::uint64_t sample_window,
                            std::uint64_t sample_interval) {
    return record([word] { return word; }, type, tid, stripe, sample_window,
                  sample_interval);
  }

  /// Synthetic ownership claim delivered at a handoff point
  /// (Session::handoff): stands in for the receiving thread's first write
  /// to the transferred line, which static sync-scoped pruning may have
  /// removed. Runs the history automaton (so any invalidation the pruned
  /// write would have caused is still counted) but touches neither the
  /// sampling clock nor the word histogram — the claim is not a sampled
  /// access. Afterwards the automaton is exactly {tid, W}, the state in
  /// which any further access by `tid` changes nothing until another thread
  /// touches the line. Returns true if the claim registered an
  /// invalidation.
  bool claim_for_handoff(ThreadId tid) {
    const bool invalidated = packed_history_.access(tid, AccessType::kWrite) ==
                             HistoryOutcome::kInvalidation;
    if (invalidated) {
      Stripe::bump(stripe_or_register(find_stripe()).invalidations);
    }
    return invalidated;
  }

  /// The calling thread's stripe, or nullptr before it registers one: the
  /// stripe table's entry at the thread's token. Reads only the tracker's
  /// first host line, the table and the entry.
  Stripe* find_stripe() const {
    const std::uint32_t token = detail::stripe_token();
    const StripeTable* table = stripe_table_.load(std::memory_order_acquire);
    if (table == nullptr || token >= table->capacity()) return nullptr;
    return std::atomic_ref<Stripe*>(table->entries()[token])
        .load(std::memory_order_acquire);
  }

  /// The inline tracked exit of Runtime::handle_access: retires one
  /// single-word access that falls outside the calling thread's sampling
  /// window by ticking `stripe`'s clock (and, for a write, its write count)
  /// — owner-local loads and stores, no RMW. `stripe` is find_stripe()'s
  /// result. Returns false, changing nothing, when the access needs the
  /// full path (Runtime::handle_tracked): a disarmed tracker, a thread with
  /// no stripe yet, a sampled access, or a write while the line's
  /// prediction decision is pending (its count must reach the shared
  /// counter the threshold check reads).
  bool try_retire_unsampled(Stripe* stripe, AccessType type,
                            std::uint64_t sample_window,
                            std::uint64_t sample_interval) {
    if (stripe == nullptr || !armed_.load(std::memory_order_acquire)) {
      return false;
    }
    const bool write = type == AccessType::kWrite;
    if (write && !prediction_decided()) return false;
    if (!stripe->clock.tick_unsampled(sample_window, sample_interval)) {
      return false;
    }
    if (write) Stripe::bump(stripe->writes);
    return true;
  }

  /// Counts one tracked write in the calling thread's stripe (`stripe`, as
  /// for handle_word) once the line's prediction decision is made; returns
  /// false, counting nothing, while the decision is pending, and the
  /// caller then counts the write in the region's shared counter.
  bool count_write(Stripe* stripe) {
    if (!prediction_decided()) return false;
    Stripe::bump(stripe_or_register(stripe).writes);
    return true;
  }

  /// Writes counted in stripes (see count_write); ShadowSpace::writes_count
  /// adds them to the shared per-line counter.
  std::uint64_t stripe_writes() const { return sum(&Stripe::writes); }

  /// Completes escalation: from here on accesses advance the sampling clock.
  /// Idempotent; called by the runtime after tracker creation bookkeeping
  /// (staged-count purge, prediction settling) is done.
  void arm() { armed_.store(true, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  std::size_t line_index() const { return line_index_; }

  // --- snapshot accessors (thread-safe; used by reporting/prediction) ---

  std::uint64_t invalidations() const { return sum(&Stripe::invalidations); }
  std::uint64_t total_accesses() const {
    std::uint64_t n = unarmed_accesses_.load(std::memory_order_relaxed);
    for_each_stripe([&](const Stripe& s) {
      n += s.clock.count.load(std::memory_order_relaxed);
    });
    return n;
  }
  /// A stub that reads 0: no access is suppressed. perfbench still reports
  /// it as `runtime.suppressed_frac`; the next change to the benchmark
  /// removes it.
  std::uint64_t suppressed_accesses() const { return 0; }
  std::uint64_t sampled_accesses() const {
    return sampled_reads() + sampled_writes();
  }
  std::uint64_t sampled_writes() const { return sum(&Stripe::sampled_writes); }
  std::uint64_t sampled_reads() const { return sum(&Stripe::sampled_reads); }

  /// The counts above that a report or a snapshot reads of a line, summed
  /// in one walk of the stripe table.
  struct Counts {
    std::uint64_t invalidations = 0;
    std::uint64_t sampled_reads = 0;
    std::uint64_t sampled_writes = 0;
    std::uint64_t total_accesses = 0;

    std::uint64_t sampled_accesses() const {
      return sampled_reads + sampled_writes;
    }
  };
  Counts counts() const {
    Counts c;
    c.total_accesses = unarmed_accesses_.load(std::memory_order_relaxed);
    for_each_stripe([&](const Stripe& s) {
      c.invalidations += s.invalidations.load(std::memory_order_relaxed);
      c.sampled_reads += s.sampled_reads.load(std::memory_order_relaxed);
      c.sampled_writes += s.sampled_writes.load(std::memory_order_relaxed);
      c.total_accesses += s.clock.count.load(std::memory_order_relaxed);
    });
    return c;
  }

  /// Copy of the word histogram (size = words_per_line).
  std::vector<WordAccess> words_snapshot() const {
    std::vector<WordAccess> out(geometry_.words_per_line());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = atomic_words_[i].snapshot();
    }
    return out;
  }

  /// Bytes of tracker metadata, including lazily-grown per-thread stripes
  /// and the entries of every stripe table it keeps (Figure 8/9
  /// accounting).
  std::size_t metadata_bytes() const {
    std::size_t bytes = sizeof(CacheTracker);
    std::lock_guard<Spinlock> g(lock_);
    bytes += stripes_.size() * sizeof(Stripe);
    for (const StripeTable* t = stripe_table_.load(std::memory_order_relaxed);
         t != nullptr; t = t->prev()) {
      bytes += t->capacity() * sizeof(Stripe*);
    }
    return bytes;
  }

  /// Stripe tables retained: the published one and those it superseded.
  std::size_t stripe_tables() const {
    return chain_length(stripe_table_.load(std::memory_order_acquire));
  }

  // --- virtual line coverage (prediction verification, Section 3.4) ---

  /// Registers virtual line `vl` as covering the words of this physical
  /// line whose bits are set in `words` (bit k: word k). The entry keeps
  /// the line's index and points at its history word; the tracker does not
  /// own either, `vl`'s store does, and every line a tracker covers comes
  /// from one store. The fan-out table is append-only: the entry is
  /// written, then the table's size is release-stored, so sampled-access
  /// fan-out reads it without any lock. A full table is replaced by a
  /// larger copy (GrowOnlyTable), so a tracker with k virtual lines retains
  /// at most ceil(log2 k) + 1 tables and fewer than 3k filled entries.
  void add_virtual_line(const VirtualLineTracker& vl, std::uint32_t words) {
    VirtualLineStore& store = vl.store();
    PackedHistoryTable* history = store.history_word(vl);
    std::lock_guard<Spinlock> g(lock_);
    // Written before the first table is published and never again, so
    // fan-out reads it after the table's acquire load.
    if (vl_store_ == nullptr) vl_store_ = &store;
    PRED_CHECK(vl_store_ == &store);
    FanOutTable* cur = fanout_.load(std::memory_order_relaxed);
    const std::uint32_t n =
        cur == nullptr ? 0 : cur->size.load(std::memory_order_relaxed);
    FanOutTable* table = FanOutTable::with_room(cur, n);
    table->entries()[n] = {words, vl.index(), history};
    table->size.store(n + 1, std::memory_order_release);
    if (table != cur) fanout_.store(table, std::memory_order_release);
  }

  /// Forwards a sampled access to word `word` to the virtual lines that
  /// cover it; the others are never touched. A read-only scan of the
  /// published table that writes only the covering lines' history words
  /// (when their state changes) and, for an invalidation, the calling
  /// thread's own count (VirtualLineStore::count_invalidation); concurrent
  /// nominations become visible on the next sampled access.
  void update_virtual_lines(std::size_t word, AccessType type, ThreadId tid) {
    const FanOutTable* table = fanout_.load(std::memory_order_acquire);
    if (table == nullptr) return;
    const std::uint32_t bit = std::uint32_t{1} << word;
    const std::uint32_t n = table->size.load(std::memory_order_acquire);
    const FanOutEntry* e = table->entries();
    for (std::uint32_t i = 0; i < n; ++i) {
      if ((e[i].words & bit) != 0 &&
          e[i].history->access(tid, type) == HistoryOutcome::kInvalidation) {
        vl_store_->count_invalidation(e[i].line);
      }
    }
  }

  /// Fan-out tables retained: the published one and those it superseded.
  std::size_t fanout_tables() const {
    return chain_length(fanout_.load(std::memory_order_acquire));
  }

  /// Clears the word histogram and history table so a recycled object
  /// starting on this line is not blamed for its predecessor's accesses
  /// (the "updates recording information at memory de-allocations" rule of
  /// Section 2.3.2). Only called for lines with zero invalidations.
  void reset_for_reuse() {
    packed_history_.reset();
    for (AtomicWordAccess& w : atomic_words_) w.reset();
    // Cross-thread stores; a concurrently ticking owner resyncs (see
    // SampleClock::tick). Stripe write counts stay: like the shared
    // counter they add to, they total the line's writes across tenants.
    for_each_stripe([](Stripe& s) {
      s.clock.reset();
      s.sampled_reads.store(0, std::memory_order_relaxed);
      s.sampled_writes.store(0, std::memory_order_relaxed);
      s.invalidations.store(0, std::memory_order_relaxed);
    });
    unarmed_accesses_.store(0, std::memory_order_relaxed);
  }

  /// Marks that the predictor already analyzed this line (step 3 of the
  /// Section 3.2 workflow runs once per line). Returns true for the caller
  /// that wins the transition.
  bool try_begin_prediction() {
    return !prediction_done_.exchange(true, std::memory_order_acq_rel);
  }

  /// Makes the prediction decision without analysis (prediction is off),
  /// so tracked writes count in stripes from the start.
  void settle_prediction() {
    prediction_done_.store(true, std::memory_order_release);
  }

  /// True once try_begin_prediction has been won or settle_prediction
  /// called: the line no longer needs an exact shared write count.
  bool prediction_decided() const {
    return prediction_done_.load(std::memory_order_acquire);
  }

 private:
  /// Indexed by stripe token; an entry is null until its token registers.
  using StripeTable = GrowOnlyTable<Stripe*>;

  /// One virtual line and the words of this line it covers.
  struct FanOutEntry {
    std::uint32_t words;  ///< bit k: the virtual line covers word k
    std::uint32_t line;   ///< the virtual line's index in its store
    PackedHistoryTable* history;  ///< its word in its anchor's block
  };
  using FanOutTable = GrowOnlyTable<FanOutEntry>;

  /// handle_word's body: the sampling decision on the calling thread's
  /// stripe, then — inside the window — the word histogram and the history
  /// automaton. `word_of()` yields the word index and runs only when the
  /// access is sampled.
  template <typename WordOf>
  AccessOutcome record(WordOf&& word_of, AccessType type, ThreadId tid,
                       Stripe* stripe, std::uint64_t window,
                       std::uint64_t interval) {
    if (!armed_.load(std::memory_order_acquire)) [[unlikely]] {
      unarmed_accesses_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    Stripe& st = stripe_or_register(stripe);
    if (!st.clock.tick(window, interval)) {
      return {};  // outside the sampling window: count only
    }
    AccessOutcome outcome;
    outcome.sampled = true;
    if (type == AccessType::kWrite) {
      Stripe::bump(st.sampled_writes);
    } else {
      Stripe::bump(st.sampled_reads);
    }
    atomic_words_[word_of()].record(tid, type);
    if (packed_history_.access(tid, type) == HistoryOutcome::kInvalidation) {
      Stripe::bump(st.invalidations);
    }
    return outcome;
  }

  /// `stripe`, or — when the caller found none — the calling thread's
  /// stripe, registered now. Registration runs once per (thread, tracker)
  /// pair.
  Stripe& stripe_or_register(Stripe* stripe) {
    if (stripe != nullptr) [[likely]] return *stripe;
    return register_stripe(detail::stripe_token());
  }

  /// Fills the token's entry of the stripe table (growing the table when
  /// the token is past its capacity) unless it is filled already.
  Stripe& register_stripe(std::uint32_t token) {
    std::lock_guard<Spinlock> g(lock_);
    StripeTable* cur = stripe_table_.load(std::memory_order_relaxed);
    StripeTable* table = StripeTable::with_room(cur, token);
    std::atomic_ref<Stripe*> entry(table->entries()[token]);
    Stripe* stripe = entry.load(std::memory_order_relaxed);
    if (stripe == nullptr) {
      stripe = &stripes_.emplace_back();
      entry.store(stripe, std::memory_order_release);
      if (table->size.load(std::memory_order_relaxed) <= token) {
        table->size.store(token + 1, std::memory_order_release);
      }
    }
    if (table != cur) stripe_table_.store(table, std::memory_order_release);
    return *stripe;
  }

  /// Invokes fn on every registered stripe via the published table (safe
  /// against concurrent registration; no lock).
  template <typename F>
  void for_each_stripe(F&& fn) const {
    const StripeTable* table = stripe_table_.load(std::memory_order_acquire);
    if (table == nullptr) return;
    const std::uint32_t n = table->size.load(std::memory_order_acquire);
    Stripe** entries = table->entries();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (Stripe* s = std::atomic_ref<Stripe*>(entries[i])
                          .load(std::memory_order_acquire)) {
        fn(*s);
      }
    }
  }

  /// One stripe counter summed over every registered stripe.
  std::uint64_t sum(std::atomic<std::uint64_t> Stripe::*counter) const {
    std::uint64_t n = 0;
    for_each_stripe([&](const Stripe& s) {
      n += (s.*counter).load(std::memory_order_relaxed);
    });
    return n;
  }

  template <typename Table>
  static std::size_t chain_length(const Table* newest) {
    std::size_t n = 0;
    for (; newest != nullptr; newest = newest->prev()) ++n;
    return n;
  }

  // Host line 0: read by every tracked access, inline exits included;
  // written only when a thread registers a stripe, a virtual line is
  // nominated, or the tracker is armed or decides its prediction.
  alignas(kCacheLineSize) std::atomic<StripeTable*> stripe_table_{nullptr};
  std::atomic<FanOutTable*> fanout_{nullptr};  ///< the newest table
  VirtualLineStore* vl_store_ = nullptr;  ///< where fan-out counts
  std::atomic<bool> armed_;
  std::atomic<bool> prediction_done_{false};
  const std::size_t line_index_;
  const LineGeometry geometry_;

  // Host line 1: the word sampled accesses CAS.
  alignas(kCacheLineSize) PackedHistoryTable packed_history_;
  std::atomic<std::uint64_t> unarmed_accesses_{0};

  // The word histogram, from the next host line on.
  alignas(kCacheLineSize) std::array<AtomicWordAccess, kMaxWords>
      atomic_words_{};

  // Registration only: stripe registrations and virtual-line nominations.
  mutable Spinlock lock_;
  std::deque<Stripe> stripes_;  ///< stable addresses; one per token
};

// Adjacent trackers (ShadowSpace arena slots) must not themselves falsely
// share: the tracker starts on a host line boundary and occupies a whole
// number of host lines. alignas on the class gives both (sizeof is padded
// to a multiple of the alignment), and C++17 aligned operator new keeps the
// guarantee for the heap-allocated trackers the arena owns.
static_assert(alignof(CacheTracker) == kCacheLineSize);
static_assert(sizeof(CacheTracker) % kCacheLineSize == 0);
// Every escalated line pays this much metadata (Figures 8/9): 1024 B on
// x86-64 — the read-mostly line, the history line, 12 lines of word
// histogram and the registration state.
static_assert(sizeof(CacheTracker) <= 1024);

}  // namespace pred
