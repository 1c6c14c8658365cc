// VirtualLineStore's nomination, count-table growth and read side, kept off
// the access path (see virtual_line.hpp).
#include "runtime/virtual_line.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace pred {

VirtualLineStore::~VirtualLineStore() {
  CountDirectory* dir = counts_.load(std::memory_order_relaxed);
  if (dir != nullptr) {
    const std::uint32_t tokens = dir->size.load(std::memory_order_relaxed);
    for (std::uint32_t t = 0; t < tokens; ++t) {
      CountTable::destroy(dir->entries()[t]);
    }
  }
  CountDirectory::destroy(dir);
}

VirtualLineTracker* VirtualLineStore::add(Address start, std::size_t size,
                                          VirtualLineTracker::Kind kind,
                                          Address hot_x, Address hot_y) {
  PRED_CHECK(size > 0 && size <= std::numeric_limits<std::uint32_t>::max());
  std::lock_guard<Spinlock> g(lock_);
  PRED_CHECK(lines_.size() < std::numeric_limits<std::uint32_t>::max());
  std::uint32_t& next = next_word_[geometry_.line_base(start)];
  if (next % kWordsPerBlock == 0) {
    // No block for this anchor yet (next is 0 for a new key), or its
    // newest one is full.
    next = static_cast<std::uint32_t>(blocks_.size()) * kWordsPerBlock;
    blocks_.emplace_back();
  }
  const std::uint32_t word = next++;
  return &lines_.emplace_back(*this, static_cast<std::uint32_t>(lines_.size()),
                              word, start, static_cast<std::uint32_t>(size),
                              kind, hot_x, hot_y);
}

PackedHistoryTable* VirtualLineStore::history_word(
    const VirtualLineTracker& vl) {
  PRED_CHECK(&vl.store() == this);
  std::lock_guard<Spinlock> g(lock_);
  return &blocks_[vl.word() / kWordsPerBlock].words[vl.word() % kWordsPerBlock];
}

VirtualLineStore::CountTable* VirtualLineStore::grow_counts(
    std::uint32_t token, std::uint32_t index) {
  std::lock_guard<Spinlock> g(lock_);
  CountDirectory* cur = counts_.load(std::memory_order_relaxed);
  CountDirectory* dir = CountDirectory::with_room(cur, token);
  CountTable*& entry = dir->entries()[token];
  // Room for every line nominated so far, so a token that starts counting
  // late does not regrow for each older line.
  const auto lines = static_cast<std::uint32_t>(lines_.size());
  CountTable* table = CountTable::with_room_replacing(
      entry, (std::max(index + 1, lines) - 1) / kCountsPerLine);
  if (table != entry) {
    // Only this thread reads its table outside the lock, so the old one
    // can go now. A superseded directory may still name it, but only its
    // owner reads its own entry there, and from now on it reads `dir`.
    CountTable::destroy(entry);
    entry = table;
  }
  if (dir->size.load(std::memory_order_relaxed) <= token) {
    dir->size.store(token + 1, std::memory_order_release);
  }
  if (dir != cur) counts_.store(dir, std::memory_order_release);
  return table;
}

std::uint64_t VirtualLineStore::invalidations(std::uint32_t index) const {
  std::lock_guard<Spinlock> g(lock_);
  const CountDirectory* dir = counts_.load(std::memory_order_relaxed);
  if (dir == nullptr) return 0;
  std::uint64_t n = 0;
  const std::uint32_t tokens = dir->size.load(std::memory_order_relaxed);
  for (std::uint32_t t = 0; t < tokens; ++t) {
    const CountTable* table = dir->entries()[t];
    if (table != nullptr && index / kCountsPerLine < table->capacity()) {
      n += std::atomic_ref<std::uint64_t>(
               table->entries()[index / kCountsPerLine]
                   .n[index % kCountsPerLine])
               .load(std::memory_order_relaxed);
    }
  }
  return n;
}

std::size_t VirtualLineStore::history_blocks() const {
  std::lock_guard<Spinlock> g(lock_);
  return blocks_.size();
}

std::size_t VirtualLineStore::count_table_bytes() const {
  std::lock_guard<Spinlock> g(lock_);
  return count_table_bytes_locked();
}

std::size_t VirtualLineStore::count_table_bytes_locked() const {
  const CountDirectory* dir = counts_.load(std::memory_order_relaxed);
  if (dir == nullptr) return 0;
  std::size_t bytes = 0;
  const std::uint32_t tokens = dir->size.load(std::memory_order_relaxed);
  for (std::uint32_t t = 0; t < tokens; ++t) {
    if (const CountTable* table = dir->entries()[t]) {
      bytes += table->capacity() * sizeof(CountLine);
    }
  }
  return bytes;
}

std::size_t VirtualLineStore::metadata_bytes() const {
  std::lock_guard<Spinlock> g(lock_);
  std::size_t bytes = lines_.size() * sizeof(VirtualLineTracker) +
                      blocks_.size() * sizeof(HistoryBlock) +
                      count_table_bytes_locked();
  for (const CountDirectory* d = counts_.load(std::memory_order_relaxed);
       d != nullptr; d = d->prev()) {
    bytes += d->capacity() * sizeof(CountTable*);
  }
  return bytes;
}

}  // namespace pred
