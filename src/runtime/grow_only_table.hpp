// A grow-only table in one allocation, shared by the tracker's stripe and
// fan-out tables (runtime/cache_tracker.hpp) and the virtual lines' count
// tables (runtime/virtual_line.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>
#include <type_traits>

namespace pred {

/// A small header followed by `capacity` entries, so a reader reaches an
/// entry from the owner's table pointer with no further indirection.
/// Writers are serialized by the owner: an entry is written in place, then
/// `size` (one past the highest entry written) is release-stored. An index
/// past the capacity first replaces the table with a copy that has room for
/// twice the index (with_room); the owner publishes the copy with one
/// release store. A superseded table stays alive, reachable through prev(),
/// until the owner frees the chain with destroy(), because a reader may
/// still hold it. Capacities run from i + 1 to at least 2(c + 1), so a table
/// written at indices below n leaves at most ⌈log2 n⌉ + 1 tables behind.
/// The header and the allocation take the entries' alignment, so a table of
/// host-line entries starts on a host line and fills whole lines.
template <typename Entry>
class alignas(Entry) GrowOnlyTable {
  static_assert(std::is_trivially_copyable_v<Entry> &&
                std::is_trivially_destructible_v<Entry>);

 public:
  /// `table` if it has room for entry `index`; otherwise a new,
  /// unpublished table holding `table`'s entries and size, superseding it.
  /// Entries past the copied ones are value-initialized.
  static GrowOnlyTable* with_room(GrowOnlyTable* table, std::uint32_t index) {
    if (table != nullptr && index < table->capacity_) return table;
    return copy(table, index, table);
  }

  /// with_room() for a table no reader holds once it is replaced (readers
  /// that do not own it read under the owner's lock): the copy does not
  /// supersede `table`, which the caller frees with destroy() after
  /// publishing the copy.
  static GrowOnlyTable* with_room_replacing(GrowOnlyTable* table,
                                            std::uint32_t index) {
    if (table != nullptr && index < table->capacity_) return table;
    return copy(table, index, nullptr);
  }

  /// Frees `newest` and every table it superseded.
  static void destroy(GrowOnlyTable* newest) {
    while (newest != nullptr) {
      GrowOnlyTable* prev = newest->prev_;
      newest->~GrowOnlyTable();
      ::operator delete(newest, std::align_val_t{alignof(GrowOnlyTable)});
      newest = prev;
    }
  }

  std::uint32_t capacity() const { return capacity_; }
  /// The table this one superseded, or nullptr.
  const GrowOnlyTable* prev() const { return prev_; }
  /// The entries, stored right after the header.
  Entry* entries() const {
    return std::launder(reinterpret_cast<Entry*>(
        const_cast<GrowOnlyTable*>(this) + 1));
  }

  /// One past the highest entry written.
  std::atomic<std::uint32_t> size{0};

 private:
  GrowOnlyTable(std::uint32_t capacity, GrowOnlyTable* prev)
      : capacity_(capacity), prev_(prev) {}

  /// A new table with room for entry `index`, holding `table`'s entries
  /// and size, whose prev() is `prev`.
  static GrowOnlyTable* copy(const GrowOnlyTable* table, std::uint32_t index,
                             GrowOnlyTable* prev) {
    static_assert(sizeof(GrowOnlyTable) % alignof(Entry) == 0);
    const std::uint32_t capacity =
        table == nullptr ? index + 1 : 2 * (index + 1);
    void* mem =
        ::operator new(sizeof(GrowOnlyTable) + capacity * sizeof(Entry),
                       std::align_val_t{alignof(GrowOnlyTable)});
    auto* next = new (mem) GrowOnlyTable(capacity, prev);
    Entry* e = next->entries();
    for (std::uint32_t i = 0; i < capacity; ++i) new (e + i) Entry{};
    if (table != nullptr) {
      std::copy_n(table->entries(), table->capacity_, e);
      next->size.store(table->size.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    return next;
  }

  const std::uint32_t capacity_;
  GrowOnlyTable* const prev_;
};

}  // namespace pred
