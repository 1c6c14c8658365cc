// Shared machinery of the PREDATOR benchmark (perfbench): one round of one
// workload, its correctness checks, its spans, and the sampled record probe
// the traced run uses to split Session::record time by line state.
//
// A round is one pass over a workload's inputs in a fresh process; run.py
// repeats rounds until the run's time budget is spent and reports
// interquartile means.
// Every value a round measures is printed as one JSON line (see Round).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/predator.hpp"
#include "sim/executor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string corpus_dir;  ///< directory of *.pir modules (ir_pipeline)
  unsigned nproc = 1;      ///< OS threads a round may run at once
};

/// Spans around the benchmark's own calls into the library's modules. Only
/// recorded in traced rounds; `time()` returns the duration either way, so
/// end-to-end figures and spans come from the same stopwatch.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  template <typename F>
  double time(const char* name, F&& fn) {
    const double start = seconds_since(t0_);
    int idx = -1;
    if (enabled_) {
      idx = static_cast<int>(spans_.size());
      spans_.push_back({name, start, 0, current_});
      current_ = idx;
    }
    fn();
    const double end = seconds_since(t0_);
    if (enabled_) {
      spans_[idx].end = end;
      current_ = spans_[idx].parent;
    }
    return end - start;
  }

  bool enabled() const { return enabled_; }

  /// Per span name: {count, total seconds, self seconds}. Self time is the
  /// span's duration minus the time its direct children cover.
  struct Totals {
    std::uint64_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Totals> totals() const;
  /// Seconds covered by top-level spans.
  double covered() const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// One round's output: named values, check tallies, and (traced) spans.
class Round {
 public:
  explicit Round(const Options& opt) : opt_(opt), tracer_(opt.trace) {}

  const Options& options() const { return opt_; }
  Tracer& tracer() { return tracer_; }

  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }
  double get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void max(const std::string& name, double value) {
    if (value > values_[name]) values_[name] = value;
  }

  /// Counts one correctness check; a failure is reported on stderr.
  bool check(bool ok, const std::string& what);
  std::uint64_t failed() const { return failed_; }

  /// Prints the round as one JSON line on stdout.
  void print_json(double wall_s) const;

 private:
  const Options& opt_;
  Tracer tracer_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Adds one session's counters, read at the end of its access phase, to the
/// round: every tracker's totals, the virtual lines the predictor nominated,
/// the metadata peak, the allocation count and the delivered-access count
/// (runtime.* / predict.* / alloc.* values).
void account_session(Round& round, pred::Session& session,
                     std::uint64_t accesses, const pred::Report* report);

/// Times a seeded batch of session allocations (alloc.alloc_us) and frees
/// them again; traced rounds call it once a session's counters are read.
void alloc_probe(Round& round, pred::Session& session);

/// Derives the ratio metrics (runtime.*_frac, site_recall, clean_frac, ...)
/// from the sums the workload accumulated, and in traced rounds the metrics
/// read off span totals.
void finalize(Round& round);

/// Timing sums of the record probe; summed over sessions, then reported as
/// means (runtime.record_ns, the per-state buckets, runtime.tracker_ns and
/// runtime.find_region_ns).
struct ProbeStats {
  enum State { kUntracked, kStaged, kTracked, kStates };
  double count[kStates] = {};
  double ns[kStates] = {};
  double tracker_calls = 0, tracker_ns = 0;
  double find_calls = 0, find_ns = 0;

  void merge(const ProbeStats& o);
  void report(Round& round) const;
};

/// Samples one Session::record call in every `kPeriod`: the line's state is
/// read first (no region / staged, no tracker / tracked) and the call is
/// timed alone. Sampled calls on tracked lines are kept so finish() can feed
/// them straight to a standalone CacheTracker. One probe per OS thread;
/// merge() folds in another thread's probe of the same session.
class RecordProbe {
 public:
  static constexpr std::uint64_t kPeriod = 61;
  static constexpr std::size_t kKeep = 1 << 14;

  explicit RecordProbe(pred::Session& session) : session_(&session) {}

  void record(pred::Address addr, pred::AccessType type, pred::ThreadId tid,
              std::size_t size) {
    if (++calls_ % kPeriod != 0) [[likely]] {
      session_->runtime().handle_access(addr, type, tid, size);
      return;
    }
    sample(addr, type, tid, size);
  }

  void merge(const RecordProbe& other);
  /// Times the kept tracked calls on a standalone tracker and the kept
  /// addresses through find_region; the session must still be alive.
  ProbeStats finish() const;

 private:
  void sample(pred::Address addr, pred::AccessType type, pred::ThreadId tid,
              std::size_t size);

  pred::Session* session_;
  std::uint64_t calls_ = 0;
  ProbeStats stats_;
  std::vector<pred::TraceEvent> tracked_;  ///< think_cycles holds the tid
  std::vector<pred::Address> addrs_;       ///< find_region sample
};

/// Times of one-shot phases a few milliseconds long follow every hiccup of
/// the host, so such phases run this many times and report the median.
constexpr int kReportReps = 7;

/// Builds the session's report (runtime.report) and renders it as text and
/// JSON (report_io.format), kReportReps times; leaves the report in *out and
/// returns the median seconds of one build plus rendering. Adds the median
/// build and rendering times to runtime.report_ms and report_io.format_ms.
double build_report(Round& round, const pred::Session& session,
                    pred::Report* out);

/// Cost of one steady_clock::now() call: what bracketing a call with two
/// clock reads adds to its measured duration.
double clock_read_ns();

double peak_rss_mb();
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
/// q-quantile (0..1) by nearest rank.
double quantile(std::vector<double> v, double q);

/// Calls fn `reps` times; returns the median seconds of one call.
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

// Workload entry points (one translation unit each).
void run_live(Round& round);
void run_replay(Round& round);
void run_ir_pipeline(Round& round);
void run_churn(Round& round);

}  // namespace perfbench
