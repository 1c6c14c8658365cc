// Public facade of the PREDATOR library (Session API v2).
//
// A Session bundles everything a user needs: the detection runtime
// (Section 2), the prediction engine (Section 3), and the custom allocator
// (Section 2.3.2), pre-wired. Typical use:
//
//   pred::Session session;
//   auto cs = session.intern_frames({"myfile.c:42"});
//   auto* data = static_cast<T*>(session.alloc(sizeof(T), cs));
//   ... in each thread: pred::ScopedThread guard(session);
//       pred::store(x) / pred::load(x) on tracked data ...
//   std::cout << session.report_text();
//
// v2 notes (see docs/usage.md for the migration guide):
//   - `record()` is the single access entry point; the typed shims in
//     instrument/access.hpp route through it and infer the access size.
//   - allocation callsites are interned once (`intern_frames`) and passed
//     as `CallsiteId`.
//   - `flush()` publishes the calling thread's staged write counters;
//     `ScopedThread`/`ThreadContext::unbind` do it automatically, and
//     `report()` flushes the reporting thread, so explicit calls are only
//     needed when inspecting counters mid-run from a still-bound thread.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/predator_allocator.hpp"
#include "monitor/monitor.hpp"
#include "predict/predictor.hpp"
#include "runtime/report.hpp"
#include "runtime/runtime.hpp"

namespace pred {

struct SessionOptions {
  RuntimeConfig runtime{};
  MonitorConfig monitor{};
  std::size_t heap_size = 256 * 1024 * 1024;
  /// Fleet identity of this session (stamped on published snapshots).
  /// 0 derives one from the process id and a per-process counter, which is
  /// what keeps forked fleet clients distinguishable at the collector.
  std::uint64_t session_uid = 0;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- component access ---
  Runtime& runtime() { return *runtime_; }
  const Runtime& runtime() const { return *runtime_; }
  PredatorAllocator& allocator() { return *allocator_; }
  Predictor& predictor() { return *predictor_; }
  const SessionOptions& options() const { return options_; }

  /// The live monitor (src/monitor/), configured by SessionOptions::monitor.
  /// `monitor().snapshot()` / `snapshot_text()` read the runtime's trackers
  /// and virtual lines on demand, from any thread, without stopping mutator
  /// threads; no access path does monitor work.
  ///
  /// Flushing contract: `snapshot()` publishes the *calling* thread's
  /// staged write counters first — the same guarantee `report()` gives —
  /// so everything this thread did before the call (including escalations
  /// the flush itself triggers) is visible in the returned snapshot. Other
  /// threads flush on unbind/exit as usual; their in-flight staged counts
  /// appear in a later snapshot.
  Monitor& monitor() { return *monitor_; }

  // --- memory ---

  /// Interns a symbolic callsite stack (outermost frame last) for use with
  /// the CallsiteId alloc overload. Intern once, allocate many.
  CallsiteId intern_frames(std::initializer_list<std::string_view> frames) {
    return runtime_->callsites().intern_frames(frames);
  }

  /// Allocates `size` bytes attributed to a pre-interned callsite.
  void* alloc(std::size_t size, CallsiteId callsite);

  void free(void* p);

  /// Starts tracking an existing object (e.g. a global variable). The
  /// object's memory itself is registered as a tracked region — the part
  /// no earlier region covers. When the region table is full the object
  /// stays untracked and Runtime::regions_dropped() counts it.
  void register_global(void* addr, std::size_t size, std::string name);

  // --- threads & accesses ---
  ThreadId register_thread() { return runtime_->register_thread(); }

  /// The single access entry point: records one `size`-byte access of
  /// `type` at `p` by thread `tid`. The typed shims (pred::load<T> /
  /// pred::store<T>) call this with the inferred sizeof(T).
  void record(const void* p, AccessType type, ThreadId tid,
              std::size_t size) {
    runtime_->handle_access(reinterpret_cast<Address>(p), type, tid, size);
  }

  /// Bulk delivery: semantically exactly `count` repetitions of record().
  /// Used by batched instrumentation (the mini-IR's kReport and merge
  /// compensation) to amortize call overhead; every sampling, threshold,
  /// and history decision is made per access, so the detector's state —
  /// and its report — is identical to `count` individual record() calls.
  void record_n(const void* p, AccessType type, ThreadId tid,
                std::size_t size, std::uint64_t count) {
    runtime_->handle_access_n(reinterpret_cast<Address>(p), type, tid, size,
                              count);
  }

  /// A stub that does nothing: a synchronization event (lock
  /// acquire/release, barrier) changes nothing the detector records.
  /// perfbench still calls it; the next change to the benchmark removes it.
  void sync(ThreadId /*tid*/) {}

  /// Ownership handoff of [p, p+len) to thread `tid` (e.g. a producer
  /// publishing a buffer to a consumer under a lock). Delivers a synthetic
  /// ownership claim to every line the range overlaps, escalating untracked
  /// lines first, standing in for the receiver's first write when static
  /// sync-scoped pruning removed it, so pruned and unpruned runs count the
  /// same invalidations.
  void handoff(const void* p, std::size_t len, ThreadId tid) {
    runtime_->handle_handoff(reinterpret_cast<Address>(p), len, tid);
  }

  /// Publishes the calling thread's staged write counters to the shared
  /// per-line counters, running any threshold checks that became due.
  /// Ordering: `report()` and `monitor().snapshot()` both perform this
  /// flush for the calling thread themselves, so an explicit call is only
  /// needed when reading `ShadowSpace::writes_count` directly mid-run from
  /// a still-bound thread.
  void flush() { flush_staged_writes(); }

  // --- fleet publication (Session API v2) ---

  /// This session's fleet identity: SessionOptions::session_uid, or the
  /// pid-and-counter-derived default.
  std::uint64_t uid() const { return uid_; }

  /// Takes a monitor snapshot (same flushing contract as
  /// monitor().snapshot()) and encodes it as one kSnapshot wire frame
  /// stamped with this session's identity — the unit a fleet client streams
  /// to a collector (src/collect/). The bytes are transport-agnostic:
  /// write them to a socket/pipe, hand them to a SnapshotSink, or feed
  /// them straight to Collector::ingest_frame in-process.
  std::string publish();

  /// Transport session brackets surrounding a stream of publish() frames.
  std::string hello_frame() const;
  std::string goodbye_frame() const;

  // --- results ---
  Report report() const { return build_report(*runtime_); }
  std::string report_text() const {
    return format_report(report(), runtime_->callsites());
  }

  /// Bytes of analysis metadata currently held (Figures 8/9 accounting).
  std::size_t metadata_bytes() const { return runtime_->metadata_bytes(); }

 private:
  SessionOptions options_;
  std::uint64_t uid_ = 0;
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<Predictor> predictor_;
  std::unique_ptr<PredatorAllocator> allocator_;
  // Reads runtime_ only inside snapshot(); declared after it like the
  // other components that point into it.
  std::unique_ptr<Monitor> monitor_;
};

/// Thread-local binding of (session, thread id) used by the access shims in
/// instrument/access.hpp, so instrumented code does not need to thread a
/// session reference through every call.
class ThreadContext {
 public:
  static void bind(Session* session, ThreadId tid);
  /// Drains the thread's staged write counters, then clears the binding.
  static void unbind();
  static Session* session();
  static ThreadId tid();
};

/// RAII registration of the calling thread with a session.
class ScopedThread {
 public:
  explicit ScopedThread(Session& session)
      : ScopedThread(session, session.register_thread()) {}
  ScopedThread(Session& session, ThreadId tid) {
    ThreadContext::bind(&session, tid);
  }
  ~ScopedThread() { ThreadContext::unbind(); }
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;
};

}  // namespace pred
