// A demand-zero reservation: anonymous private memory mapped with
// MAP_NORESERVE, so it costs address space until touched, reads as zero
// before its first write (the kernel's zero page), and becomes resident one
// page at a time as it is written. Backs the allocator's heap
// (alloc/heap_region.hpp) and the shadow side arrays (runtime/shadow.hpp),
// so neither is resident before the program touches it.
#pragma once

#include <sys/mman.h>

#include <cstddef>

#include "common/check.hpp"

namespace pred {

class AnonMapping {
 public:
  /// Maps `size` bytes read/write. `hint` only suggests a placement (no
  /// MAP_FIXED): when it is taken the kernel chooses another address.
  explicit AnonMapping(std::size_t size, void* hint = nullptr) : size_(size) {
    PRED_CHECK(size > 0);
    void* p = ::mmap(hint, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PRED_CHECK(p != MAP_FAILED);
    data_ = p;
  }
  ~AnonMapping() { ::munmap(data_, size_); }

  AnonMapping(const AnonMapping&) = delete;
  AnonMapping& operator=(const AnonMapping&) = delete;

  void* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pred
