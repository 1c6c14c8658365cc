// Workload `replay`: the CLI's default flow over the whole registry at twice
// the default scale, on one OS thread and fully deterministic. Each kernel
// is captured as per-thread traces (8 logical threads), saved and reloaded
// through trace_io v2, and replayed at quantum 1 with prediction on; the
// report is built, rendered as text and JSON, and scored against Table 1. The conservative
// interleaving drives every shared line into the history table and the
// predictor's virtual lines, which `live` touches lightly.
#include <sstream>

#include "bench.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

// Twice the CLI's default work: at scale 1 a few seeds in a hundred leave
// reverse_index's Table 1 site below the report threshold; at scale 2 none
// of seeds 1-100 does.
constexpr std::uint64_t kScale = 2;
constexpr int kNativeReps = 5;

/// The predator-cli defaults: 64 MiB heap, 1% sampling, prediction on.
pred::SessionOptions cli_options(bool prediction) {
  pred::SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  o.runtime.prediction_enabled = prediction;
  return o;
}

/// Round-robin replay at quantum 1, as wl::replay_into_session does, with
/// each delivery going through `deliver(addr, type, tid, size)`.
template <typename Deliver>
void round_robin(const std::vector<pred::ThreadTrace>& traces,
                 Deliver&& deliver) {
  std::vector<std::size_t> cursor(traces.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t t = 0; t < traces.size(); ++t) {
      if (cursor[t] == traces[t].size()) continue;
      const pred::TraceEvent& ev = traces[t][cursor[t]++];
      deliver(ev.addr, ev.type, static_cast<pred::ThreadId>(t), ev.size);
      progressed = true;
    }
  }
}

/// FNV-1a over every field of every event, thread by thread: lets the
/// trace_io round trip be checked after the captured traces are freed.
std::uint64_t digest(const std::vector<pred::ThreadTrace>& traces) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  for (const pred::ThreadTrace& trace : traces) {
    mix(trace.size());
    for (const pred::TraceEvent& ev : trace) {
      mix(ev.addr);
      mix(ev.think_cycles);
      mix(static_cast<std::uint64_t>(ev.type) << 8 | ev.size);
    }
  }
  return h;
}

/// Scores a kernel's report: each Table 1 site is one gated check and counts
/// in sites.expected / sites.found; a clean kernel counts in clean.kernels
/// and, with no false-sharing finding, in clean.passed (the findings it has
/// add to false_positives).
void score_report(Round& round, const pred::wl::Workload& w,
                  const pred::Session& session, const pred::Report& report) {
  const auto& sites = w.traits().sites;
  if (sites.empty()) {
    const auto findings =
        static_cast<double>(pred::wl::false_sharing_findings(report));
    round.add("clean.kernels", 1);
    round.add("clean.passed", findings == 0 ? 1 : 0);
    round.add("false_positives", findings);
    return;
  }
  for (const pred::wl::Site& site : sites) {
    const bool found = pred::wl::report_mentions_site(
        report, session.runtime().callsites(), site.where);
    round.check(found, "Table 1 site " + site.where + " missed");
    round.add("sites.expected", 1);
    round.add("sites.found", found ? 1 : 0);
  }
}

}  // namespace

void run_replay(Round& round) {
  Tracer& tr = round.tracer();
  const Options& opt = round.options();
  double setup = 0, replay_s = 0, native_s = 0, report_s = 0, accesses = 0;
  double save_s = 0, load_s = 0, trace_bytes = 0, pred_on = 0, pred_off = 0;
  ProbeStats probe_stats;

  for (const auto& w : pred::wl::all_workloads()) {
    pred::wl::Params p;  // CLI defaults: 8 logical threads
    p.scale = kScale;
    p.seed = opt.seed;

    std::unique_ptr<pred::Session> session;
    std::vector<pred::ThreadTrace> loaded;
    std::uint64_t captured = 0;
    setup += tr.time("setup", [&] {
      tr.time("api.session_setup", [&] {
        session = std::make_unique<pred::Session>(cli_options(true));
      });
      std::vector<pred::ThreadTrace> traces;
      tr.time("workloads.capture", [&] { traces = w->capture(*session, p); });
      std::ostringstream out;
      save_s += tr.time("trace.save", [&] {
        round.check(pred::save_traces(out, traces), "trace save");
      });
      tr.time("bench.verify", [&] {
        captured = digest(traces);
        traces = {};
      });
      std::string bytes = std::move(out).str();
      trace_bytes += static_cast<double>(bytes.size());
      std::istringstream in(std::move(bytes));
      load_s += tr.time("trace.load", [&] {
        round.check(pred::load_traces(in, &loaded), "trace load");
      });
    });
    tr.time("bench.verify", [&] {
      round.check(digest(loaded) == captured,
                  "trace_io round trip of " + w->traits().name);
    });

    pred::Runtime& rt = session->runtime();
    if (opt.trace) {
      RecordProbe probe(*session);
      replay_s += tr.time("runtime.record", [&] {
        round_robin(loaded, [&](auto a, auto t, auto tid, auto n) {
          probe.record(a, t, tid, n);
        });
      });
      probe_stats.merge(probe.finish());
    } else {
      replay_s += tr.time("runtime.record", [&] {
        round_robin(loaded, [&](auto a, auto t, auto tid, auto n) {
          rt.handle_access(a, t, tid, n);
        });
      });
    }
    // The same access stream without the detector: each access touches its
    // byte in place (a store writes back the value it read). It runs in a
    // few milliseconds, so its median over kNativeReps runs is taken.
    native_s += median_seconds(kNativeReps, [&] {
      tr.time("native.replay", [&] {
        round_robin(loaded, [&](auto a, auto t, auto, auto) {
          auto* byte = reinterpret_cast<volatile unsigned char*>(a);
          const unsigned char v = *byte;
          if (t == pred::AccessType::kWrite) *byte = v;
        });
      });
    });

    pred::Report report;
    report_s += build_report(round, *session, &report);
    score_report(round, *w, *session, report);
    const std::uint64_t events = pred::total_events(loaded);
    account_session(round, *session, events, &report);
    if (opt.trace) alloc_probe(round, *session);
    accesses += static_cast<double>(events);
    tr.time("api.session_teardown", [&] { session.reset(); });

    if (opt.trace) {
      // Prediction's share of record time: the kernel replayed without the
      // probe into a prediction-on and a prediction-off session, each of
      // which owns its own capture.
      tr.time("bench.probe_sessions", [&] {
        for (const bool prediction : {true, false}) {
          pred::Session s(cli_options(prediction));
          const auto own = w->capture(s, p);
          (prediction ? pred_on : pred_off) +=
              tr.time("runtime.record", [&] {
                round_robin(own, [&](auto a, auto t, auto tid, auto n) {
                  s.runtime().handle_access(a, t, tid, n);
                });
              });
        }
      });
    }
  }

  round.set("setup_s", setup);
  round.set("slowdown_x", replay_s / native_s);
  round.set("accesses_per_s", accesses / replay_s);
  round.set("report_s", report_s);
  round.set("trace.save_mb_per_s", trace_bytes / 1e6 / save_s);
  round.set("trace.load_mb_per_s", trace_bytes / 1e6 / load_s);
  round.set("trace.bytes_per_access", trace_bytes / accesses);
  if (opt.trace) {
    probe_stats.report(round);
    round.set("predict.overhead_frac", pred_on / pred_off - 1);
  }
}

}  // namespace perfbench
