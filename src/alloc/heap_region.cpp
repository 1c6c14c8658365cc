#include "alloc/heap_region.hpp"

namespace pred {

namespace {
// A fixed hint keeps heap addresses stable across runs, which in turn keeps
// report addresses stable (the paper pins its heap for the same reason).
// MAP_FIXED is deliberately avoided: if the hint is taken we fall back to
// wherever the kernel places us.
constexpr std::uintptr_t kHeapHint = 0x4000000000ull;
}  // namespace

HeapRegion::HeapRegion(std::size_t size, std::size_t line_size)
    : mapping_(size, reinterpret_cast<void*>(kHeapHint)),
      line_size_(line_size) {
  // Keep the base line-aligned regardless of what the kernel returned.
  cursor_.store(round_up(base(), line_size_) - base(),
                std::memory_order_relaxed);
}

Address HeapRegion::allocate_span(std::size_t bytes) {
  const std::size_t want = round_up(bytes, line_size_);
  std::size_t offset = cursor_.fetch_add(want, std::memory_order_relaxed);
  if (offset + want > size()) return 0;  // exhausted
  return base() + offset;
}

}  // namespace pred
