// Span ownership registry: which logical thread owns each heap span. The
// per-thread heaps (thread_heap.hpp) carve line-aligned spans out of the
// shared region and — by the Hoard-style discipline of Section 2.3.2 —
// objects of different threads never share a physical cache line. This map
// records that carving so the thread-escape analysis
// (instrument/analysis/escape.hpp) can PROVE an address range confined to
// one thread's span: accesses to such ranges can never participate in a
// cross-thread invalidation and may skip instrumentation entirely.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"

namespace pred {

class OwnershipMap {
 public:
  struct Span {
    Address base = 0;
    std::size_t len = 0;
    ThreadId owner = kInvalidThread;

    bool contains(Address a) const { return a >= base && a < base + len; }
  };

  /// Records a freshly carved span as owned by `owner`. Spans come from the
  /// region's bump cursor, so they never overlap.
  void record_span(Address base, std::size_t len, ThreadId owner) {
    if (base == 0 || len == 0) return;
    std::lock_guard<Spinlock> g(lock_);
    const auto it = std::lower_bound(
        spans_.begin(), spans_.end(), base,
        [](const Span& s, Address b) { return s.base < b; });
    spans_.insert(it, Span{base, len, owner});
  }

  /// The span containing `a`, if any.
  std::optional<Span> span_of(Address a) const {
    std::lock_guard<Spinlock> g(lock_);
    auto it = std::upper_bound(
        spans_.begin(), spans_.end(), a,
        [](Address b, const Span& s) { return b < s.base; });
    if (it == spans_.begin()) return std::nullopt;
    --it;
    if (!it->contains(a)) return std::nullopt;
    return *it;
  }

  /// Owner of the whole range [a, a + len) — only when it sits inside one
  /// recorded span (a range straddling spans could straddle owners).
  std::optional<ThreadId> owner_of(Address a, std::size_t len = 1) const {
    const auto s = span_of(a);
    if (!s || len == 0 || a + len > s->base + s->len) return std::nullopt;
    return s->owner;
  }

 private:
  mutable Spinlock lock_;
  std::vector<Span> spans_;  // sorted by base, non-overlapping
};

}  // namespace pred
