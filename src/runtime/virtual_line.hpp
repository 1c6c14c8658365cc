// Virtual cache line verification state (Sections 3.3-3.4).
//
// A virtual line is a contiguous byte range that stands in for a cache line
// of a *hypothetical* platform: either a double-sized line [2i, 2i+2) lines
// (predicting larger hardware lines) or a same-sized line at an arbitrary
// starting offset (predicting a different object placement). Once the
// predictor nominates a virtual line (from a hot access pair), the runtime
// feeds every sampled access in its range through the line's own two-entry
// history table; the resulting invalidation count is the predicted severity.
//
// Layout: a virtual line's shared state is one 8-byte history word.
// VirtualLineStore packs the words eight to a host-line block, by *anchor
// line*: the physical line the range starts in. Only lines anchored on L or
// on L - 1 cover a word of physical line L, so a sampled access to L writes
// at most the blocks of those two anchors (one block each while an anchor
// has at most eight lines). Coverage is decided at registration: each
// physical line's fan-out entry holds a per-word mask and points straight
// at the word (CacheTracker::add_virtual_line), and a covering line writes
// its word only when its history automaton changes state (a CAS). The CAS
// winner of an invalidation counts it in its stripe token's own count
// table (runtime/stripe_token.hpp): one writer per table, a load and a
// store, no RMW, on lines no other thread writes. VirtualLineTracker is the
// line's read-only descriptor; the access path never reads it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "runtime/grow_only_table.hpp"
#include "runtime/history_table.hpp"
#include "runtime/stripe_token.hpp"

namespace pred {

class VirtualLineStore;

/// One nominated virtual line: its range, the hot pair that nominated it,
/// and where its state sits in its VirtualLineStore. Made by
/// VirtualLineStore::add and never written after.
class VirtualLineTracker {
 public:
  enum class Kind : std::uint8_t {
    kDoubleLine,  ///< models hardware with 2x line size (Figure 3b)
    kShifted,     ///< models a different object starting address (Figure 3c)
  };

  VirtualLineTracker(VirtualLineStore& store, std::uint32_t index,
                     std::uint32_t word, Address start, std::uint32_t size,
                     Kind kind, Address hot_x, Address hot_y)
      : store_(&store),
        start_(start),
        hot_x_(hot_x),
        hot_y_(hot_y),
        index_(index),
        word_(word),
        size_(size),
        kind_(kind) {}

  bool covers(Address a) const { return a >= start_ && a < start_ + size_; }

  /// The words of the physical line at `line_start` that this line covers:
  /// bit k is set iff word k lies in the range. Registration computes it
  /// once per overlapped physical line (Runtime::add_virtual_line). A mask
  /// describes whole words, so the range must start and end on word
  /// boundaries.
  std::uint32_t covered_words(Address line_start,
                              const LineGeometry& geo) const {
    std::uint32_t words = 0;
    for (std::size_t k = 0; k < geo.words_per_line(); ++k) {
      if (covers(line_start + k * geo.word_size)) {
        words |= std::uint32_t{1} << k;
      }
    }
    return words;
  }

  Address start() const { return start_; }
  std::size_t size() const { return size_; }
  Kind kind() const { return kind_; }
  Address hot_x() const { return hot_x_; }
  Address hot_y() const { return hot_y_; }
  /// Nomination order in the store: the line's slot in every count table.
  std::uint32_t index() const { return index_; }
  /// The history word's position in the store's blocks.
  std::uint32_t word() const { return word_; }
  VirtualLineStore& store() const { return *store_; }

  /// Predicted invalidations: the line's count summed over tokens.
  std::uint64_t invalidations() const;
  /// The line's history word.
  const PackedHistoryTable& history() const;

 private:
  VirtualLineStore* const store_;
  const Address start_;
  const Address hot_x_;
  const Address hot_y_;
  const std::uint32_t index_;
  const std::uint32_t word_;
  const std::uint32_t size_;
  const Kind kind_;
};

// A descriptor is read, never written, after nomination, so it needs no
// host line to itself.
static_assert(sizeof(VirtualLineTracker) <= 48);

/// The virtual lines of one runtime: their descriptors, their history words
/// packed by anchor line, and their invalidation counts, one count table per
/// stripe token. Nominations, count-table growth and cross-thread count
/// reads take one lock; an access only takes it the first time its thread
/// counts an invalidation of a line past its table.
class VirtualLineStore {
 public:
  explicit VirtualLineStore(const LineGeometry& geometry)
      : geometry_(geometry) {}
  ~VirtualLineStore();

  VirtualLineStore(const VirtualLineStore&) = delete;
  VirtualLineStore& operator=(const VirtualLineStore&) = delete;

  /// Nominates the virtual line [start, start + size): appends its
  /// descriptor, whose address stays valid for the store's life, and gives
  /// it the next word of its anchor line's newest block, or of a new block
  /// when that one is full. The caller registers its coverage with the
  /// physical lines it overlaps (Runtime::add_virtual_line).
  VirtualLineTracker* add(Address start, std::size_t size,
                          VirtualLineTracker::Kind kind, Address hot_x,
                          Address hot_y);

  /// The history word of `vl`, a line of this store: what fan-out entries
  /// point at.
  PackedHistoryTable* history_word(const VirtualLineTracker& vl);

  /// Counts one invalidation of line `index` for the calling thread: a load
  /// and a store in its token's count table. The table is made, or
  /// replaced by a larger one, under the lock when `index` is past it.
  void count_invalidation(std::uint32_t index) {
    const std::uint32_t token = detail::stripe_token();
    const CountDirectory* dir = counts_.load(std::memory_order_acquire);
    CountTable* table = dir != nullptr && token < dir->capacity()
                            ? dir->entries()[token]
                            : nullptr;
    if (table == nullptr || index / kCountsPerLine >= table->capacity())
        [[unlikely]] {
      table = grow_counts(token, index);
    }
    std::atomic_ref<std::uint64_t> n(
        table->entries()[index / kCountsPerLine].n[index % kCountsPerLine]);
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  /// Line `index`'s invalidations: its slot summed over the tokens' tables.
  std::uint64_t invalidations(std::uint32_t index) const;

  /// Nominated lines, in nomination order. Nominations append, so iterate
  /// only when none can run concurrently; a walk during a run goes through
  /// for_each.
  std::size_t size() const { return lines_.size(); }
  std::deque<VirtualLineTracker>::const_iterator begin() const {
    return lines_.begin();
  }
  std::deque<VirtualLineTracker>::const_iterator end() const {
    return lines_.end();
  }

  /// Invokes fn(const VirtualLineTracker&) for every line nominated when
  /// the walk begins, in nomination order. The pointers are copied under
  /// the lock and fn runs outside it; deque references stay valid while
  /// nominations append.
  template <typename F>
  void for_each(F&& fn) const {
    std::vector<const VirtualLineTracker*> lines;
    {
      std::lock_guard<Spinlock> g(lock_);
      lines.reserve(lines_.size());
      for (const VirtualLineTracker& vl : lines_) lines.push_back(&vl);
    }
    for (const VirtualLineTracker* vl : lines) fn(*vl);
  }

  /// Host-line blocks of history words.
  std::size_t history_blocks() const;
  /// Bytes of the tokens' count tables.
  std::size_t count_table_bytes() const;
  /// Descriptors, history blocks, the token directory and the count tables
  /// (Figure 8/9 accounting).
  std::size_t metadata_bytes() const;

 private:
  static constexpr std::uint32_t kWordsPerBlock =
      kCacheLineSize / sizeof(PackedHistoryTable);
  struct alignas(kCacheLineSize) HistoryBlock {
    std::array<PackedHistoryTable, kWordsPerBlock> words;
  };
  static_assert(sizeof(HistoryBlock) == kCacheLineSize);

  /// Eight lines' counts on one host line, so the tables of two tokens
  /// never share a line.
  static constexpr std::uint32_t kCountsPerLine =
      kCacheLineSize / sizeof(std::uint64_t);
  struct alignas(kCacheLineSize) CountLine {
    std::uint64_t n[kCountsPerLine];
  };
  /// A token's counts: line i's in entry i / 8, slot i % 8. Written only by
  /// the token's holder; replaced, not kept, when it grows, so other
  /// threads read it under the lock.
  using CountTable = GrowOnlyTable<CountLine>;
  /// Each token's count table, indexed by token.
  using CountDirectory = GrowOnlyTable<CountTable*>;

  /// Gives `token` a count table with room for `index` and every line
  /// nominated so far.
  CountTable* grow_counts(std::uint32_t token, std::uint32_t index);
  std::size_t count_table_bytes_locked() const;

  // Read by every counted invalidation; written only when a token past the
  // directory's capacity first counts.
  alignas(kCacheLineSize) std::atomic<CountDirectory*> counts_{nullptr};

  // Nomination and growth state, from the next host line on.
  alignas(kCacheLineSize) mutable Spinlock lock_;
  const LineGeometry geometry_;
  std::deque<VirtualLineTracker> lines_;
  std::deque<HistoryBlock> blocks_;
  /// Anchor line start → the next word of the anchor's newest block; a
  /// multiple of kWordsPerBlock when that block is full.
  std::unordered_map<Address, std::uint32_t> next_word_;
};

inline std::uint64_t VirtualLineTracker::invalidations() const {
  return store_->invalidations(index_);
}

inline const PackedHistoryTable& VirtualLineTracker::history() const {
  return *store_->history_word(*this);
}

}  // namespace pred
