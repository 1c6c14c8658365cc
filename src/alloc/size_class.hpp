// Segregated-fit size classes for the per-thread heaps, in the Heap
// Layers/Hoard tradition the paper builds on.
#pragma once

#include <array>
#include <cstddef>

namespace pred {

/// Power-of-two classes from 16 bytes to 16 KB; larger requests bypass the
/// class system and take a dedicated span.
class SizeClasses {
 public:
  static constexpr std::size_t kMinSize = 16;
  static constexpr std::size_t kMaxSize = 16 * 1024;
  static constexpr std::size_t kNumClasses = 11;  // 16 << 10 == 16K

  /// Class index for a request, or kNumClasses for large requests.
  static constexpr std::size_t index_for(std::size_t size) {
    std::size_t cls = 0;
    std::size_t cap = kMinSize;
    while (cap < size) {
      cap <<= 1;
      ++cls;
    }
    return cls <= kNumClasses - 1 && size <= kMaxSize ? cls : kNumClasses;
  }

  /// Allocation size of a class.
  static constexpr std::size_t size_of(std::size_t cls) {
    return kMinSize << cls;
  }
};

static_assert(SizeClasses::index_for(1) == 0);
static_assert(SizeClasses::index_for(16) == 0);
static_assert(SizeClasses::index_for(17) == 1);
static_assert(SizeClasses::index_for(16 * 1024) == SizeClasses::kNumClasses - 1);
static_assert(SizeClasses::index_for(16 * 1024 + 1) == SizeClasses::kNumClasses);
static_assert(SizeClasses::size_of(0) == 16);
static_assert(SizeClasses::size_of(10) == 16 * 1024);

}  // namespace pred
