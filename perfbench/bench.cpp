#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/prng.hpp"
#include "report_io/report_json.hpp"
#include "runtime/cache_tracker.hpp"
#include "runtime/report.hpp"

namespace perfbench {

/// Keeps the results of timed loops observable to the optimizer.
volatile std::uint64_t g_sink = 0;

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total += d;
    t.self += d - child[i];
  }
  return out;
}

double Tracer::covered() const {
  double s = 0;
  for (const Span& sp : spans_) {
    if (sp.parent < 0) s += sp.end - sp.start;
  }
  return s;
}

bool Round::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

void Round::print_json(double wall_s) const {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %u, \"attempted\": %llu, \"failed\": %llu, "
              "\"wall_s\": %.9g, \"values\": {",
              opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.trace ? 1 : 0,
              opt_.nproc, static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), wall_s);
  const char* sep = "";
  for (const auto& [name, value] : values_) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  std::printf("}, \"covered_s\": %.9g, \"spans\": {", tracer_.covered());
  sep = "";
  for (const auto& [name, t] : tracer_.totals()) {
    std::printf("%s\"%s\": [%llu, %.9g, %.9g]", sep, name.c_str(),
                static_cast<unsigned long long>(t.count), t.total, t.self);
    sep = ", ";
  }
  std::printf("}}\n");
}

void account_session(Round& round, pred::Session& session,
                     std::uint64_t accesses, const pred::Report* report) {
  const pred::Runtime& rt = session.runtime();
  rt.for_each_region([&](const pred::ShadowSpace& region) {
    region.for_each_tracker([&](std::size_t, const pred::CacheTracker* t) {
      auto add = [&](const char* name, std::uint64_t v) {
        round.add(name, static_cast<double>(v));
      };
      add("runtime.tracked_accesses", t->total_accesses());
      add("runtime.sampled_accesses", t->sampled_accesses());
      add("runtime.suppressed_accesses", t->suppressed_accesses());
      add("runtime.invalidations", t->invalidations());
      add("runtime.tracker_bytes", t->metadata_bytes());
      add("runtime.escalated_lines", 1);
    });
  });
  round.add("runtime.accesses", static_cast<double>(accesses));
  round.add("runtime.threads", rt.thread_count());
  round.add("predict.virtual_lines",
            static_cast<double>(rt.virtual_lines().size()));
  round.add("alloc.calls",
            static_cast<double>(session.allocator().stats().allocations));
  round.max("peak_metadata_mb",
            static_cast<double>(session.metadata_bytes()) / 1e6);
  if (report != nullptr) {
    double predicted = 0;
    for (const pred::ObjectFinding& f : report->findings) {
      predicted += static_cast<double>(f.predictions.size());
    }
    round.add("predict.predicted_findings", predicted);
  }
}

void finalize(Round& round) {
  auto ratio = [&](const char* name, const char* num, const char* den) {
    const double d = round.get(den);
    if (d > 0) round.set(name, round.get(num) / d);
  };
  ratio("runtime.tracked_frac", "runtime.tracked_accesses", "runtime.accesses");
  ratio("runtime.sampled_frac", "runtime.sampled_accesses",
        "runtime.tracked_accesses");
  ratio("runtime.suppressed_frac", "runtime.suppressed_accesses",
        "runtime.tracked_accesses");
  ratio("runtime.metadata_b_per_tracker", "runtime.tracker_bytes",
        "runtime.escalated_lines");
  ratio("predict.verified_frac", "predict.predicted_findings",
        "predict.virtual_lines");
  ratio("site_recall", "sites.found", "sites.expected");
  ratio("clean_frac", "clean.passed", "clean.kernels");
  if (round.tracer().enabled()) {
    const auto spans = round.tracer().totals();
    auto total = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total;
    };
    round.set("workloads.capture_s", total("workloads.capture"));
    const double allocs = round.get("alloc.probe_calls");
    if (allocs > 0) {
      round.set("alloc.alloc_us", total("alloc.allocate") * 1e6 / allocs);
    }
  }
}

void alloc_probe(Round& round, pred::Session& session) {
  constexpr int kAllocs = 256;
  const pred::CallsiteId cs = session.intern_frames({"perfbench:alloc_probe"});
  pred::Xorshift64 rng(round.options().seed);
  std::vector<std::size_t> sizes(kAllocs);
  for (std::size_t& n : sizes) n = 16 + rng.next_below(1008);
  std::vector<void*> blocks;
  blocks.reserve(kAllocs);
  round.tracer().time("alloc.allocate", [&] {
    for (std::size_t n : sizes) blocks.push_back(session.alloc(n, cs));
  });
  for (void* p : blocks) session.free(p);
  round.add("alloc.probe_calls", kAllocs);
}

double build_report(Round& round, const pred::Session& session,
                    pred::Report* out) {
  Tracer& tr = round.tracer();
  const auto& callsites = session.runtime().callsites();
  std::vector<double> build, format, both;
  std::size_t bytes = 0;
  for (int i = 0; i < kReportReps; ++i) {
    build.push_back(tr.time("runtime.report", [&] { *out = session.report(); }));
    format.push_back(tr.time("report_io.format", [&] {
      bytes = pred::format_report(*out, callsites).size() +
              pred::report_to_json(*out, callsites).size();
    }));
    both.push_back(build.back() + format.back());
  }
  round.add("runtime.report_ms", median(build) * 1e3);
  round.add("report_io.format_ms", median(format) * 1e3);
  round.add("report_io.bytes", static_cast<double>(bytes));
  return median(both);
}

void ProbeStats::merge(const ProbeStats& o) {
  for (int s = 0; s < kStates; ++s) {
    count[s] += o.count[s];
    ns[s] += o.ns[s];
  }
  tracker_calls += o.tracker_calls;
  tracker_ns += o.tracker_ns;
  find_calls += o.find_calls;
  find_ns += o.find_ns;
}

void ProbeStats::report(Round& round) const {
  const double overhead = clock_read_ns();
  auto mean_ns = [&](double total, double n) {
    return n > 0 ? std::max(0.0, total / n - overhead) : 0.0;
  };
  double all_ns = 0, all_n = 0;
  for (int s = 0; s < kStates; ++s) {
    all_ns += ns[s];
    all_n += count[s];
  }
  round.set("runtime.record_ns", mean_ns(all_ns, all_n));
  round.set("runtime.untracked_ns", mean_ns(ns[kUntracked], count[kUntracked]));
  round.set("runtime.staged_ns", mean_ns(ns[kStaged], count[kStaged]));
  round.set("runtime.tracked_ns", mean_ns(ns[kTracked], count[kTracked]));
  round.set("runtime.probe_samples", all_n);
  if (tracker_calls > 0) {
    round.set("runtime.tracker_ns", tracker_ns / tracker_calls);
  }
  if (find_calls > 0) round.set("runtime.find_region_ns", find_ns / find_calls);
}

void RecordProbe::sample(pred::Address addr, pred::AccessType type,
                         pred::ThreadId tid, std::size_t size) {
  pred::Runtime& rt = session_->runtime();
  auto st = ProbeStats::kUntracked;
  if (const pred::ShadowSpace* region = rt.find_region(addr)) {
    st = region->tracker(region->line_index(addr)) ? ProbeStats::kTracked
                                                   : ProbeStats::kStaged;
  }
  if (addrs_.size() < kKeep) addrs_.push_back(addr);
  const auto t0 = Clock::now();
  rt.handle_access(addr, type, tid, size);
  const auto t1 = Clock::now();
  stats_.ns[st] += std::chrono::duration<double, std::nano>(t1 - t0).count();
  stats_.count[st] += 1;
  if (st == ProbeStats::kTracked && tracked_.size() < kKeep) {
    tracked_.push_back({addr, tid, type, static_cast<std::uint8_t>(size)});
  }
}

void RecordProbe::merge(const RecordProbe& other) {
  stats_.merge(other.stats_);
  for (const auto& ev : other.tracked_) {
    if (tracked_.size() < kKeep) tracked_.push_back(ev);
  }
  for (pred::Address a : other.addrs_) {
    if (addrs_.size() < kKeep) addrs_.push_back(a);
  }
}

ProbeStats RecordProbe::finish() const {
  ProbeStats out = stats_;
  const pred::Runtime& rt = session_->runtime();
  const pred::RuntimeConfig& cfg = rt.config();
  std::uint64_t sink = 0;
  if (!tracked_.empty()) {
    // The same tracked sub-stream, fed straight to one standalone tracker:
    // what a tracked access costs without region resolution and dispatch.
    pred::CacheTracker tracker(0, cfg.geometry);
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    while (calls < 200'000) {
      for (const pred::TraceEvent& ev : tracked_) {
        const auto tid = static_cast<pred::ThreadId>(ev.think_cycles);
        sink += tracker
                    .handle_access(ev.addr, ev.type, tid, cfg.sample_window,
                                   cfg.sample_interval, rt.thread_epoch(tid))
                    .sampled;
      }
      calls += tracked_.size();
    }
    out.tracker_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    out.tracker_calls += static_cast<double>(calls);
  }
  if (!addrs_.empty()) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    while (calls < 200'000) {
      for (pred::Address a : addrs_) {
        sink += reinterpret_cast<std::uintptr_t>(rt.find_region(a)) & 1;
      }
      calls += addrs_.size();
    }
    out.find_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    out.find_calls += static_cast<double>(calls);
  }
  g_sink = sink;
  return out;
}

double clock_read_ns() {
  static const double ns = [] {
    std::vector<double> runs;
    for (int r = 0; r < 5; ++r) {
      constexpr int kCalls = 100'000;
      const auto t0 = Clock::now();
      Clock::time_point t{};
      for (int i = 0; i < kCalls; ++i) t = Clock::now();
      runs.push_back(std::chrono::duration<double, std::nano>(t - t0).count() /
                     kCalls);
    }
    return median(runs);
  }();
  return ns;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace perfbench
