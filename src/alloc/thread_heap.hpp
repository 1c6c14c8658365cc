// Per-thread heap (Section 2.3.2): every thread allocates from its own
// spans, so objects allocated by *different* threads never share a physical
// cache line — allocator-induced false sharing is prevented by construction,
// leaving only the intra-object / same-thread cases PREDATOR is designed to
// find.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/cacheline.hpp"
#include "alloc/heap_region.hpp"
#include "alloc/ownership_map.hpp"
#include "alloc/size_class.hpp"

namespace pred {

class ThreadHeap {
 public:
  /// When `ownership` is given, every span this heap carves out of the
  /// region is recorded there as owned by logical thread `owner` — the map
  /// the thread-escape analysis consumes to prove accesses thread-private.
  explicit ThreadHeap(HeapRegion& region, std::size_t line_size = 64,
                      OwnershipMap* ownership = nullptr, ThreadId owner = 0)
      : region_(region),
        line_size_(line_size),
        ownership_(ownership),
        owner_(owner) {}

  /// Allocates `size` bytes. Small requests are segregated-fit from
  /// thread-private chunks; large requests take a dedicated span. Returns 0
  /// when the backing region is exhausted. Not thread-safe by design: one
  /// instance per thread.
  Address allocate(std::size_t size);

  /// Returns a previously allocated block of `size` bytes to this heap's
  /// free lists (the caller guarantees the block is safe to recycle).
  void deallocate(Address addr, std::size_t size);

 private:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  HeapRegion& region_;
  const std::size_t line_size_;
  OwnershipMap* ownership_;
  const ThreadId owner_;
  std::array<std::vector<Address>, SizeClasses::kNumClasses> free_lists_{};
  std::array<Address, SizeClasses::kNumClasses> bump_{};      // next free
  std::array<Address, SizeClasses::kNumClasses> bump_end_{};  // chunk end
};

}  // namespace pred
