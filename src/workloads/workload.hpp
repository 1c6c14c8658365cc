// Workload framework.
//
// Every benchmark/application kernel from the paper's evaluation (Phoenix,
// PARSEC, and the six real applications) is reimplemented as a *kernel
// template* generic over an access sink, so one implementation serves four
// execution modes:
//
//   * native      — real threads, no-op sink: the "Original" bars of Fig. 7;
//   * live        — real threads, every access forwarded to a Session: the
//                   instrumented bars of Fig. 7 and the memory of Figs. 8/9;
//   * replay      — per-logical-thread traces captured sequentially, then
//                   replayed through the Session's runtime in a
//                   deterministic round-robin interleaving. This realizes
//                   the paper's conservative assumption that the schedule
//                   exposes sharing (Section 3.3) and makes detection
//                   results reproducible — essential on hosts whose real
//                   scheduler interleaves coarsely;
//   * record      — the same traces fed to the cache simulator for modeled
//                   timing (Figure 2, Table 1's Improvement column).
//
// Kernels allocate all shared data in a setup phase on the calling thread
// (as the original programs do in main()) and only access memory inside the
// parallel body.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/predator.hpp"
#include "sim/executor.hpp"

namespace pred::wl {

// ---------------------------------------------------------------------------
// Parameters & results
// ---------------------------------------------------------------------------

struct Params {
  std::uint32_t threads = 8;
  /// Work multiplier; 1 is the bench default, tests use less.
  std::uint64_t scale = 1;
  /// Bitmask of sites to fix (bit i fixes Traits::sites[i]); ~0u fixes all.
  std::uint32_t fix_mask = 0;
  /// Placement offset in bytes for offset-sensitive workloads (Figure 2).
  std::size_t offset = 0;
  std::uint64_t seed = 1;

  bool site_fixed(std::size_t i) const { return (fix_mask >> i) & 1u; }
};

struct Result {
  std::uint64_t checksum = 0;  ///< kernel-defined; validates fixed variants
};

// ---------------------------------------------------------------------------
// Sinks (compile-time polymorphism keeps the native path free of calls)
// ---------------------------------------------------------------------------

struct NullSink {
  void read(const void*, std::size_t = 8) {}
  void write(const void*, std::size_t = 8) {}
  void think(std::uint32_t) {}
};

/// Forwards to a session from a live thread.
struct SessionSink {
  Session* session;
  ThreadId tid;
  void read(const void* p, std::size_t n = 8) {
    session->record(p, AccessType::kRead, tid, n);
  }
  void write(const void* p, std::size_t n = 8) {
    session->record(p, AccessType::kWrite, tid, n);
  }
  void think(std::uint32_t) {}
};

/// Records into a per-thread trace (addresses + type + width + preceding
/// compute). think() annotates modeled cycles of uninstrumented work before
/// the next access — consumed only by the cache simulator's timing model
/// and calibrated per kernel against the original programs' compute/access
/// ratios.
struct TraceSink {
  ThreadTrace* trace;
  std::uint32_t pending_think = 0;
  void read(const void* p, std::size_t n = 8) {
    trace->push_back({reinterpret_cast<Address>(p), take_think(),
                      AccessType::kRead, static_cast<std::uint8_t>(n)});
  }
  void write(const void* p, std::size_t n = 8) {
    trace->push_back({reinterpret_cast<Address>(p), take_think(),
                      AccessType::kWrite, static_cast<std::uint8_t>(n)});
  }
  void think(std::uint32_t cycles) { pending_think += cycles; }

 private:
  std::uint32_t take_think() {
    const std::uint32_t t = pending_think;
    pending_think = 0;
    return t;
  }
};

// ---------------------------------------------------------------------------
// Harnesses
// ---------------------------------------------------------------------------

namespace detail {
template <typename F>
void run_threads(std::uint32_t n, F&& f) {
  std::vector<std::thread> ts;
  ts.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) ts.emplace_back([&f, t] { f(t); });
  for (auto& th : ts) th.join();
}
}  // namespace detail

/// Uninstrumented execution with plain (line-aligned) allocation.
class NativeHarness {
 public:
  void* alloc(std::size_t bytes,
              std::initializer_list<std::string_view> /*frames*/) {
    void* p = ::operator new(bytes, std::align_val_t{64});
    owned_.push_back(p);
    return p;
  }
  void register_global(void*, std::size_t, std::string) {}
  template <typename Body>
  void parallel(std::uint32_t n, Body&& body) {
    detail::run_threads(n, [&](std::uint32_t t) {
      NullSink sink;
      body(t, sink);
    });
  }
  ~NativeHarness() {
    for (void* p : owned_) ::operator delete(p, std::align_val_t{64});
  }

 private:
  std::vector<void*> owned_;
};

/// Real threads, instrumented: measures instrumentation cost (Figure 7).
class LiveHarness {
 public:
  explicit LiveHarness(Session& session) : session_(session) {}
  void* alloc(std::size_t bytes,
              std::initializer_list<std::string_view> frames) {
    return session_.alloc(bytes, session_.intern_frames(frames));
  }
  void register_global(void* p, std::size_t size, std::string name) {
    session_.register_global(p, size, std::move(name));
  }
  template <typename Body>
  void parallel(std::uint32_t n, Body&& body) {
    detail::run_threads(n, [&](std::uint32_t t) {
      ScopedThread guard(session_);
      SessionSink sink{&session_, ThreadContext::tid()};
      body(t, sink);
    });
  }

 private:
  Session& session_;
};

/// Sequential trace capture over session-allocated memory; the caller then
/// replays the traces into the runtime and/or the cache simulator.
class ReplayHarness {
 public:
  explicit ReplayHarness(Session& session) : session_(session) {}
  void* alloc(std::size_t bytes,
              std::initializer_list<std::string_view> frames) {
    return session_.alloc(bytes, session_.intern_frames(frames));
  }
  void register_global(void* p, std::size_t size, std::string name) {
    session_.register_global(p, size, std::move(name));
  }
  template <typename Body>
  void parallel(std::uint32_t n, Body&& body) {
    for (std::uint32_t t = 0; t < n; ++t) {
      // A kernel's threads are alike: starting each trace at the previous
      // one's final size spares it the regrowth and copies of its events.
      ThreadTrace trace;
      if (!traces_.empty()) trace.reserve(traces_.back().size());
      TraceSink sink{&trace};
      body(t, sink);
      traces_.push_back(std::move(trace));
    }
  }
  std::vector<ThreadTrace> take_traces() { return std::move(traces_); }
  const std::vector<ThreadTrace>& traces() const { return traces_; }

 private:
  Session& session_;
  std::vector<ThreadTrace> traces_;
};

/// Round-robin replay of captured traces into a session's runtime. Logical
/// thread t replays as ThreadId t. `quantum` is the number of consecutive
/// accesses a thread retires per turn — 1 is the paper's fully interleaved
/// conservative schedule.
void replay_into_session(Session& session,
                         const std::vector<ThreadTrace>& traces,
                         std::size_t quantum = 1);

// ---------------------------------------------------------------------------
// Workload interface & registry
// ---------------------------------------------------------------------------

/// One expected Table 1 row (false sharing site) of a workload.
struct Site {
  std::string where;             ///< e.g. "linear_regression-pthread.c:133"
  bool needs_prediction = false; ///< found only with prediction (Table 1)
  bool newly_discovered = false; ///< "New" column
  double paper_improvement_pct = 0.0;  ///< Table 1 "Improvement"
};

struct Traits {
  std::string name;
  std::string suite;  ///< "phoenix" | "parsec" | "real" | "numa"
  std::vector<Site> sites;  ///< empty: no false sharing expected
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const Traits& traits() const = 0;

  /// Uninstrumented run with real threads.
  virtual Result run_native(const Params& p) const = 0;
  /// Instrumented run with real threads (overhead measurement).
  virtual Result run_live(Session& s, const Params& p) const = 0;
  /// Sequential capture of per-thread traces over session memory.
  virtual std::vector<ThreadTrace> capture(Session& s,
                                           const Params& p) const = 0;

  /// Capture + deterministic replay into the session: the detection mode.
  Result run_replay(Session& s, const Params& p,
                    std::size_t quantum = 1) const {
    auto traces = capture(s, p);
    replay_into_session(s, traces, quantum);
    Result r;
    for (const auto& t : traces) r.checksum += t.size();
    return r;
  }
};

/// CRTP boilerplate eliminator: a workload derives from WorkloadImpl<Self>
/// and provides `template <class H> static Result kernel(H&, const Params&)`
/// plus traits().
template <typename Derived>
class WorkloadImpl : public Workload {
 public:
  Result run_native(const Params& p) const override {
    NativeHarness h;
    return Derived::kernel(h, p);
  }
  Result run_live(Session& s, const Params& p) const override {
    LiveHarness h(s);
    return Derived::kernel(h, p);
  }
  std::vector<ThreadTrace> capture(Session& s,
                                   const Params& p) const override {
    ReplayHarness h(s);
    Derived::kernel(h, p);
    return h.take_traces();
  }
};

/// All workloads in paper order (Phoenix, PARSEC, real applications).
const std::vector<std::unique_ptr<Workload>>& all_workloads();
const Workload* find_workload(std::string_view name);

// ---------------------------------------------------------------------------
// Report matching helpers (shared by benches and integration tests)
// ---------------------------------------------------------------------------

/// True when the report contains a false-sharing finding whose callsite (or
/// global name) mentions `site`. `only_predicted`, when non-null, receives
/// whether every matching finding is prediction-only (no observed hot
/// physical line).
bool report_mentions_site(const Report& report, const CallsiteTable& callsites,
                          const std::string& site,
                          bool* only_predicted = nullptr);

/// Count of false-sharing findings in the report (observed or predicted).
std::size_t false_sharing_findings(const Report& report);

}  // namespace pred::wl
