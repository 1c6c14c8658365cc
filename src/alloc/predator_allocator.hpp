// The allocator facade the rest of the system uses: per-thread heaps over a
// fixed region, allocation-callsite capture, object registration with the
// runtime, and the paper's memory-reuse discipline (Section 2.3.2): on free,
// an object whose lines saw invalidations is *never* recycled (its record is
// kept for reporting); a clean object's line metadata is reset and its
// memory returns to the free lists — this is what prevents pseudo false
// sharing (false positives) across object lifetimes.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/heap_region.hpp"
#include "alloc/thread_heap.hpp"
#include "common/spinlock.hpp"
#include "repair/plan.hpp"
#include "runtime/runtime.hpp"

namespace pred {

class PredatorAllocator {
 public:
  /// Creates the heap, registers it as a tracked region of `rt`, and wires
  /// shadow metadata. The runtime must outlive the allocator.
  explicit PredatorAllocator(Runtime& rt,
                             std::size_t heap_size = 256 * 1024 * 1024);

  PredatorAllocator(const PredatorAllocator&) = delete;
  PredatorAllocator& operator=(const PredatorAllocator&) = delete;

  /// Allocates `size` bytes attributed to a symbolic callsite stack
  /// (outermost frame last), e.g. {"stddefines.h:53",
  /// "linear_regression-pthread.c:133"}. Returns nullptr on exhaustion.
  void* allocate(std::size_t size, std::vector<std::string> callsite_frames);

  /// Allocates `size` bytes attributed to a pre-interned callsite: the
  /// Session API v2 path — intern the stack once, allocate many times
  /// without building (or hashing) frame strings per call.
  void* allocate(std::size_t size, CallsiteId callsite);

  /// Allocates with the native backtrace as the callsite (slower; what the
  /// paper's interposed malloc does).
  void* allocate_with_backtrace(std::size_t size);

  /// calloc analogue: zeroed allocation of count * size bytes (overflow
  /// checked; returns nullptr on overflow or exhaustion).
  void* allocate_zeroed(std::size_t count, std::size_t size,
                        std::vector<std::string> callsite_frames);

  /// realloc analogue. Grows or shrinks `p` to `new_size`, copying the
  /// surviving prefix. nullptr behaves like allocate; size 0 frees and
  /// returns nullptr.
  void* reallocate(void* p, std::size_t new_size,
                   std::vector<std::string> callsite_frames);

  /// aligned allocation (alignment must be a power of two). The heap's
  /// natural alignment is the size class; stronger alignments take a
  /// dedicated span.
  void* allocate_aligned(std::size_t alignment, std::size_t size,
                         std::vector<std::string> callsite_frames);

  /// Installs a repair plan (repair/plan.hpp): every subsequent allocation
  /// whose callsite matches a heap plan entry has its request rounded up to
  /// a multiple of the entry's pad_to — size classes then give natural
  /// line alignment, so padded slots stop sharing lines. Pass nullptr to
  /// uninstall. Resolution is memoized per CallsiteId.
  void install_repair_plan(std::shared_ptr<const repair::RepairPlan> plan);
  std::shared_ptr<const repair::RepairPlan> repair_plan() const {
    std::lock_guard<Spinlock> g(plan_lock_);
    return plan_;
  }

  /// Allocation statistics since construction.
  struct Stats {
    std::uint64_t allocations = 0;
    std::uint64_t deallocations = 0;
    std::uint64_t reallocations = 0;
    std::uint64_t leaked_for_reporting = 0;  ///< never-reused dirty objects
    std::uint64_t repairs_applied = 0;       ///< plan-padded allocations
    std::uint64_t repair_padding_bytes = 0;  ///< bytes added by the plan
  };
  Stats stats() const {
    std::lock_guard<Spinlock> g(stats_lock_);
    return stats_;
  }

  /// Frees `p`, applying the reuse rules described above. Unknown and null
  /// pointers are ignored (mirrors free(NULL) tolerance).
  void deallocate(void* p);

  /// True when any line overlapping the object saw an invalidation — the
  /// "involved in false sharing, never reuse" test.
  bool object_has_invalidations(Address start, std::size_t size) const;

  HeapRegion& region() { return region_; }
  ShadowSpace& shadow() { return *shadow_; }
  Runtime& runtime() { return rt_; }

  /// Live application bytes (requested sizes of live objects): the
  /// "Original" series of Figures 8/9.
  std::size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// A thread's heap plus the lock that makes cross-thread frees safe:
  /// frees are routed back to the *owning* heap so a block never migrates
  /// to another thread's free list (which would put two threads' objects on
  /// one line and break the Hoard-style no-shared-line invariant).
  struct LockedHeap {
    explicit LockedHeap(HeapRegion& region, std::size_t line_size)
        : heap(region, line_size) {}
    Spinlock lock;
    ThreadHeap heap;
  };

  LockedHeap& local_heap();
  void* finish_allocation(std::size_t size, CallsiteId callsite);
  /// The installed plan's heap entry matching `callsite`, or null.
  const repair::PlanEntry* plan_entry_for(CallsiteId callsite);

  Runtime& rt_;
  HeapRegion region_;
  ShadowSpace* shadow_;  // owned by the runtime

  mutable Spinlock heaps_lock_;
  std::unordered_map<std::thread::id, std::unique_ptr<LockedHeap>> heaps_;
  std::unordered_map<Address, LockedHeap*> block_owner_;

  std::atomic<std::size_t> live_bytes_{0};

  // Repair plan + per-callsite resolution memo. The shared_ptr keeps the
  // memoized PlanEntry pointers alive across install/uninstall races.
  mutable Spinlock plan_lock_;
  std::shared_ptr<const repair::RepairPlan> plan_;
  std::unordered_map<CallsiteId, const repair::PlanEntry*> plan_memo_;

  mutable Spinlock stats_lock_;
  Stats stats_;
};

}  // namespace pred
