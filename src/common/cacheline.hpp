// Cache-line geometry shared by every PREDATOR subsystem.
//
// PREDATOR analyzes memory accesses at three granularities: bytes (the raw
// access), words (the unit of the per-line access histogram used to separate
// false from true sharing, Section 2.3.2 of the paper), and cache lines (the
// unit of invalidation tracking, Section 2.3.1).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pred {

/// Byte address inside the tracked region. We use a plain integer rather than
/// a pointer so that synthetic traces and simulator runs can use the same
/// machinery as live instrumented runs.
using Address = std::uintptr_t;

/// Dense small integer identifying a thread. Thread 0 is reserved for the
/// main thread; the runtime hands these out in registration order so reports
/// are stable across runs.
using ThreadId = std::uint32_t;

inline constexpr ThreadId kInvalidThread = ~ThreadId{0};

/// Read/write tag attached to every instrumented access (the second argument
/// of the paper's HandleAccess, Figure 1).
enum class AccessType : std::uint8_t { kRead = 0, kWrite = 1 };

inline constexpr bool is_write(AccessType t) { return t == AccessType::kWrite; }

/// Geometry of the physical cache line being modeled. The paper's test
/// machine uses 64-byte lines; prediction doubles this (Section 3.3).
struct LineGeometry {
  std::size_t line_size = 64;    ///< bytes per physical cache line
  std::size_t word_size = 8;     ///< bytes per word of the access histogram

  constexpr std::size_t words_per_line() const { return line_size / word_size; }
  constexpr std::size_t line_index(Address a) const { return a / line_size; }
  constexpr Address line_base(Address a) const { return a - (a % line_size); }
  constexpr std::size_t word_in_line(Address a) const {
    return (a % line_size) / word_size;
  }
};

inline constexpr LineGeometry kDefaultGeometry{};

/// Alignment/padding unit for the *host* machine's cache lines (as opposed
/// to LineGeometry, which describes the *modeled* line). Runtime data
/// structures that different threads update concurrently — CacheTracker,
/// its sampling stripes — are padded to this so the detector's own metadata
/// never falsely shares.
inline constexpr std::size_t kCacheLineSize = 64;

/// Rounds `n` up to a multiple of `align` (align need not be a power of two).
constexpr std::size_t round_up(std::size_t n, std::size_t align) {
  return ((n + align - 1) / align) * align;
}

}  // namespace pred
