// Fixed-extent heap backing store (Section 2.3.2, "Custom Memory
// Allocation"): PREDATOR's heap lives in one contiguous reservation with a
// known base so shadow metadata is reachable by address arithmetic. Spans
// are carved with a lock-free bump pointer; fine-grained recycling happens
// in the per-thread heaps layered above.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/anon_mapping.hpp"
#include "common/cacheline.hpp"

namespace pred {

class HeapRegion {
 public:
  /// Reserves `size` bytes of demand-zero memory (default 256 MB): large
  /// reservations are cheap until touched.
  explicit HeapRegion(std::size_t size = 256 * 1024 * 1024,
                      std::size_t line_size = 64);

  HeapRegion(const HeapRegion&) = delete;
  HeapRegion& operator=(const HeapRegion&) = delete;

  Address base() const { return reinterpret_cast<Address>(mapping_.data()); }
  std::size_t size() const { return mapping_.size(); }
  bool contains(Address a) const { return a >= base() && a < base() + size(); }

  /// Carves a line-aligned span of at least `bytes` bytes. Returns 0 when
  /// the region is exhausted.
  Address allocate_span(std::size_t bytes);

 private:
  AnonMapping mapping_;
  std::size_t line_size_ = 64;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace pred
