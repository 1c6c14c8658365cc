// Workload `live`: Figure 7. Every registry kernel runs natively, then under
// a Session with fig7_overhead's recipe (defaults: 1% sampling, prediction
// on, monitor off; 64 MiB heap), both on nproc real threads, three times,
// at a per-kernel scale that makes each instrumented run last tens of
// milliseconds on a 4-core x86 host. The inline staged fast path and the
// tracked path under real contention do almost all the work; the offline
// layers stay idle.
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

// Work multiplier per kernel: brings each instrumented run near 25 ms, so
// thread start-up is a small share of even the shortest native run.
// Kernels missing here (newer registry entries) run at scale 1.
const std::map<std::string, std::uint64_t> kScale = {
    {"histogram", 12},      {"kmeans", 3},          {"linear_regression", 6},
    {"matrix_multiply", 8}, {"pca", 12},            {"reverse_index", 8},
    {"string_match", 10},   {"word_count", 6},      {"blackscholes", 24},
    {"bodytrack", 20},      {"dedup", 64},          {"ferret", 14},
    {"fluidanimate", 10},   {"streamcluster", 14},  {"swaptions", 3},
    {"x264", 24},           {"aget", 256},          {"boost", 3},
    {"memcached", 20},      {"mysql", 6},           {"pbzip2", 10},
    {"pfscan", 24},         {"blocked_matrix", 14}, {"numa_pingpong", 32},
    {"tensor_parallel", 10},
};

// fluidanimate's ghost-cell reads race with the neighbouring partition's
// writes by design, so its checksum depends on the schedule and cannot be
// compared across two real-thread runs.
bool schedule_dependent(const std::string& name) {
  return name == "fluidanimate";
}

constexpr int kLiveReps = 3;
constexpr int kNativeReps = 3;

/// fig7_overhead's session recipe: defaults with a 64 MiB heap.
pred::SessionOptions live_options() {
  pred::SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  return o;
}

/// Replays captured per-thread traces on real threads, one OS thread per
/// trace, into the session that owns the captured memory. With `probe`, a
/// sample of the calls is timed by line state.
double replay_threads(pred::Session& session,
                      const std::vector<pred::ThreadTrace>& traces,
                      RecordProbe* probe) {
  std::vector<RecordProbe> probes(traces.size(), RecordProbe(session));
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    threads.emplace_back([&, t] {
      pred::ScopedThread guard(session);
      const pred::ThreadId tid = pred::ThreadContext::tid();
      for (const pred::TraceEvent& ev : traces[t]) {
        if (probe != nullptr) {
          probes[t].record(ev.addr, ev.type, tid, ev.size);
        } else {
          session.record(reinterpret_cast<const void*>(ev.addr), ev.type, tid,
                         ev.size);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double s = seconds_since(t0);
  if (probe != nullptr) {
    for (const RecordProbe& p : probes) probe->merge(p);
  }
  return s;
}

struct KernelProbe {
  ProbeStats stats;
  double pred_on = 0;
  double pred_off = 0;
};

/// The kernel's streams on real threads into fresh sessions that own the
/// captured memory: a sampled timing by line state, then plain timings with
/// prediction on and off.
void probe_kernel(Round& round, const pred::wl::Workload& w,
                  const pred::wl::Params& p, KernelProbe& out) {
  Tracer& tr = round.tracer();
  for (const int pass : {0, 1, 2}) {
    pred::SessionOptions so = live_options();
    so.runtime.prediction_enabled = pass != 2;
    pred::Session fresh(so);
    std::vector<pred::ThreadTrace> own;
    tr.time("workloads.capture", [&] { own = w.capture(fresh, p); });
    RecordProbe probe(fresh);
    const double s = tr.time("runtime.record", [&] {
      replay_threads(fresh, own, pass == 0 ? &probe : nullptr);
    });
    if (pass == 0) {
      out.stats.merge(probe.finish());
    } else {
      (pass == 1 ? out.pred_on : out.pred_off) += s;
    }
  }
}

}  // namespace

void run_live(Round& round) {
  Tracer& tr = round.tracer();
  const Options& opt = round.options();
  std::vector<double> ratios;
  double setup = 0, live_s = 0, report_s = 0, accesses = 0;
  KernelProbe probe;

  for (const auto& w : pred::wl::all_workloads()) {
    const std::string& name = w->traits().name;
    const auto& sites = w->traits().sites;
    pred::wl::Params p;
    p.threads = opt.nproc;
    const auto it = kScale.find(name);
    p.scale = it == kScale.end() ? 1 : it->second;
    p.seed = opt.seed;

    // Paired repetitions: each live run is compared with native runs made
    // just before it, so load that drifts across the round cancels.
    std::vector<double> kernel_ratio, kernel_live, kernel_setup, kernel_report;
    std::vector<bool> found(sites.size(), false);
    double false_positives = 0;
    std::unique_ptr<pred::Session> session;
    pred::Report report;
    for (int rep = 0; rep < kLiveReps; ++rep) {
      std::vector<double> native;
      std::uint64_t native_sum = 0;
      for (int r = 0; r < kNativeReps; ++r) {
        native.push_back(tr.time("workloads.run_native", [&] {
          native_sum = w->run_native(p).checksum;
        }));
      }
      tr.time("api.session_teardown", [&] { session.reset(); });
      kernel_setup.push_back(tr.time("api.session_setup", [&] {
        session = std::make_unique<pred::Session>(live_options());
      }));
      std::uint64_t live_sum = 0;
      kernel_live.push_back(tr.time("workloads.run_live", [&] {
        live_sum = w->run_live(*session, p).checksum;
      }));
      kernel_ratio.push_back(kernel_live.back() / median(native));
      if (!schedule_dependent(name)) {
        round.check(live_sum == native_sum, "live checksum of " + name +
                                                " differs from its native run");
      }
      kernel_report.push_back(build_report(round, *session, &report));
      for (std::size_t i = 0; i < sites.size(); ++i) {
        found[i] = found[i] || pred::wl::report_mentions_site(
                                   report, session->runtime().callsites(),
                                   sites[i].where);
      }
      false_positives +=
          static_cast<double>(pred::wl::false_sharing_findings(report));
    }
    setup += median(kernel_setup);
    report_s += median(kernel_report);
    live_s += median(kernel_live);
    ratios.push_back(median(kernel_ratio));
    // A site counts as found when any repetition's report shows it; a clean
    // kernel passes when no repetition reports false sharing on it.
    round.add("sites.expected", static_cast<double>(sites.size()));
    for (std::size_t i = 0; i < sites.size(); ++i) {
      round.add("sites.found", found[i] ? 1 : 0);
    }
    if (sites.empty()) {
      round.add("clean.kernels", 1);
      round.add("clean.passed", false_positives == 0 ? 1 : 0);
      round.add("false_positives", false_positives);
    }

    // The run's delivered-access count: the same kernel captured as traces,
    // allocating in the last session once its accounting is read.
    std::vector<pred::ThreadTrace> traces;
    account_session(round, *session, 0, &report);
    if (opt.trace) alloc_probe(round, *session);
    tr.time("workloads.capture", [&] { traces = w->capture(*session, p); });
    const auto events = static_cast<double>(pred::total_events(traces));
    round.add("runtime.accesses", events);
    accesses += events;
    tr.time("api.session_teardown", [&] {
      traces = {};
      session.reset();
    });

    if (opt.trace) {
      tr.time("bench.probe_sessions",
              [&] { probe_kernel(round, *w, p, probe); });
    }
  }

  round.set("setup_s", setup);
  round.set("slowdown_x", geomean(ratios));
  round.set("accesses_per_s", accesses / live_s);
  round.set("report_s", report_s);
  if (opt.trace) {
    probe.stats.report(round);
    round.set("predict.overhead_frac", probe.pred_on / probe.pred_off - 1);
  }
}

}  // namespace perfbench
