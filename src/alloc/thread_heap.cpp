#include "alloc/thread_heap.hpp"

namespace pred {

Address ThreadHeap::allocate(std::size_t size) {
  if (size == 0) size = 1;
  const std::size_t cls = SizeClasses::index_for(size);
  if (cls == SizeClasses::kNumClasses) {
    // Large: dedicated line-aligned span, owned like any other carving.
    const Address span = region_.allocate_span(size);
    if (span != 0 && ownership_ != nullptr) {
      ownership_->record_span(span, size, owner_);
    }
    return span;
  }
  auto& list = free_lists_[cls];
  if (!list.empty()) {
    Address a = list.back();
    list.pop_back();
    return a;
  }
  const std::size_t obj_size = SizeClasses::size_of(cls);
  if (bump_[cls] + obj_size > bump_end_[cls] || bump_[cls] == 0) {
    const std::size_t chunk = std::max(kChunkSize, obj_size);
    Address span = region_.allocate_span(chunk);
    if (span == 0) return 0;
    if (ownership_ != nullptr) ownership_->record_span(span, chunk, owner_);
    bump_[cls] = span;
    bump_end_[cls] = span + chunk;
  }
  Address a = bump_[cls];
  bump_[cls] += obj_size;
  return a;
}

void ThreadHeap::deallocate(Address addr, std::size_t size) {
  const std::size_t cls = SizeClasses::index_for(size);
  if (cls == SizeClasses::kNumClasses) {
    return;  // large spans are not recycled (bump region)
  }
  free_lists_[cls].push_back(addr);
}

}  // namespace pred
