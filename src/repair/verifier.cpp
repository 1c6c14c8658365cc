#include "repair/verifier.hpp"

#include <chrono>
#include <cinttypes>
#include <memory>
#include <utility>

#include "advice/fix_advisor.hpp"
#include "common/format.hpp"
#include "repair/planner.hpp"
#include "sim/executor.hpp"
#include "workloads/workload.hpp"

namespace pred::repair {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Stable site key of a registered object, mirroring the planner's keying.
std::string site_key_of(const ObjectInfo& obj, const CallsiteTable& callsites) {
  if (obj.is_global) return obj.name;
  if (obj.callsite == kNoCallsite) return {};
  return join_frames(callsites.get(obj.callsite).frames);
}

/// Simulated invalidations summed over every registered object whose site
/// key matches a plan entry. Walks the registry (not the report) so padded
/// objects that no longer misbehave are still measured.
std::uint64_t site_invalidations(Session& session, const RepairPlan& plan,
                                 const CacheSim& sim) {
  std::uint64_t total = 0;
  const CallsiteTable& callsites = session.runtime().callsites();
  session.runtime().objects().for_each([&](const ObjectInfo& obj) {
    const std::string key = site_key_of(obj, callsites);
    if (!key.empty() && plan.find(obj.is_global, key) != nullptr) {
      total += sim.invalidations_in(obj.start, obj.size ? obj.size : 1);
    }
  });
  return total;
}

std::size_t surviving_site_findings(const Report& report,
                                    const RepairPlan& plan,
                                    const CallsiteTable& callsites) {
  std::size_t n = 0;
  for (const ObjectFinding& f : report.findings) {
    if (!f.is_false_sharing() || f.impact() == 0) continue;
    const std::string key = site_key_of(f.object, callsites);
    if (!key.empty() && plan.find(f.object.is_global, key) != nullptr) ++n;
  }
  return n;
}

}  // namespace

SessionOptions detection_session_options(std::size_t heap_size) {
  SessionOptions opts;
  opts.runtime.tracking_threshold = 1;
  opts.runtime.prediction_threshold = 1;
  opts.runtime.report_invalidation_threshold = 1;
  opts.runtime.prediction_enabled = false;
  opts.runtime.set_sampling_rate(1.0);
  opts.heap_size = heap_size;
  return opts;
}

RepairOutcome run_repair_loop(const RepairTarget& target,
                              const VerifierOptions& options) {
  RepairOutcome out;

  // Phase 1 — detect: baseline run, replayed into a fresh detector.
  const auto t_detect = Clock::now();
  Session baseline(options.session);
  RunResult base =
      target.run(baseline, nullptr, options.threads, options.scale);
  out.baseline_checksum = base.checksum;
  wl::replay_into_session(baseline, base.traces, options.quantum);
  out.baseline_report = baseline.report();
  out.detect_ms = ms_since(t_detect);

  // Phase 2 — plan: advice lowered to machine-applicable directives.
  const auto t_plan = Clock::now();
  PlannerOptions popts;
  popts.line_size = options.session.runtime.geometry.line_size;
  out.plan = compile_plan(out.baseline_report, advise(out.baseline_report),
                          baseline.runtime().callsites(), popts);
  out.plan.origin_uid = baseline.uid();
  out.plan_ms = ms_since(t_plan);

  // Baseline coherence traffic on the plan's sites.
  CacheSim base_sim(options.sim);
  simulate_interleaved(base_sim, base.traces, options.quantum);
  out.baseline_invalidations = site_invalidations(baseline, out.plan,
                                                  base_sim);

  // Phase 3 — apply: a fresh session with the plan installed re-runs the
  // same workload; heap sites repair inside the allocator, global sites
  // through the target's IR rewrite.
  const auto t_apply = Clock::now();
  Session repaired(options.session);
  repaired.allocator().install_repair_plan(
      std::make_shared<const RepairPlan>(out.plan));
  RunResult fixed = target.run(repaired, out.plan.empty() ? nullptr
                                                          : &out.plan,
                               options.threads, options.scale);
  out.repaired_checksum = fixed.checksum;
  out.apply_ms = ms_since(t_apply);

  // Phase 4 — verify: re-detect and re-simulate the repaired layout.
  const auto t_verify = Clock::now();
  wl::replay_into_session(repaired, fixed.traces, options.quantum);
  out.repaired_report = repaired.report();
  CacheSim fixed_sim(options.sim);
  simulate_interleaved(fixed_sim, fixed.traces, options.quantum);
  out.repaired_invalidations = site_invalidations(repaired, out.plan,
                                                  fixed_sim);
  out.repaired_site_findings = surviving_site_findings(
      out.repaired_report, out.plan, repaired.runtime().callsites());
  out.verify_ms = ms_since(t_verify);
  return out;
}

RepairOutcome run_static_repair_loop(const RepairTarget& target,
                                     const VerifierOptions& options) {
  RepairOutcome out;

  // Phase 1 — plan, statically: no session exists yet, nothing has run.
  const auto t_plan = Clock::now();
  StaticModuleSpec spec;
  if (!target.static_spec(&spec, options.threads, options.scale)) {
    out.plan_ms = ms_since(t_plan);
    return out;
  }
  ir::PredictOptions popt;
  popt.line_size = options.session.runtime.geometry.line_size;
  popt.extra_line_sizes = {popt.line_size * 2};
  const ir::StaticFsReport prediction =
      ir::predict_static_fs(spec.module, spec.roles, popt);
  PlannerOptions popts;
  popts.line_size = options.session.runtime.geometry.line_size;
  out.plan = compile_plan(prediction, spec.regions, popts);
  out.plan_ms = ms_since(t_plan);

  // Phase 2 — baseline measurement run. The plan above never saw it; it
  // only establishes what the prediction claimed to eliminate.
  const auto t_detect = Clock::now();
  Session baseline(options.session);
  RunResult base =
      target.run(baseline, nullptr, options.threads, options.scale);
  out.baseline_checksum = base.checksum;
  wl::replay_into_session(baseline, base.traces, options.quantum);
  out.baseline_report = baseline.report();
  CacheSim base_sim(options.sim);
  simulate_interleaved(base_sim, base.traces, options.quantum);
  out.baseline_invalidations = site_invalidations(baseline, out.plan,
                                                  base_sim);
  out.detect_ms = ms_since(t_detect);

  // Phases 3/4 — apply + verify, identical to the profiled loop.
  const auto t_apply = Clock::now();
  Session repaired(options.session);
  repaired.allocator().install_repair_plan(
      std::make_shared<const RepairPlan>(out.plan));
  RunResult fixed = target.run(repaired, out.plan.empty() ? nullptr
                                                          : &out.plan,
                               options.threads, options.scale);
  out.repaired_checksum = fixed.checksum;
  out.apply_ms = ms_since(t_apply);

  const auto t_verify = Clock::now();
  wl::replay_into_session(repaired, fixed.traces, options.quantum);
  out.repaired_report = repaired.report();
  CacheSim fixed_sim(options.sim);
  simulate_interleaved(fixed_sim, fixed.traces, options.quantum);
  out.repaired_invalidations = site_invalidations(repaired, out.plan,
                                                  fixed_sim);
  out.repaired_site_findings = surviving_site_findings(
      out.repaired_report, out.plan, repaired.runtime().callsites());
  out.verify_ms = ms_since(t_verify);
  return out;
}

std::string format_outcome(const RepairOutcome& outcome,
                           double drop_threshold) {
  std::string text;
  append_fmt(text,
             "sites planned:            %zu\n"
             "baseline invalidations:   %" PRIu64 "\n"
             "repaired invalidations:   %" PRIu64 "\n"
             "invalidation drop:        %.1f%% (need >= %.1f%%)\n"
             "surviving site findings:  %zu\n"
             "checksums:                %" PRIu64 " -> %" PRIu64 " (%s)\n"
             "phases (ms):              detect %.2f, plan %.2f, "
             "apply %.2f, verify %.2f\n"
             "verdict: %s\n",
             outcome.plan.entries.size(), outcome.baseline_invalidations,
             outcome.repaired_invalidations, 100.0 * outcome.drop_pct(),
             100.0 * drop_threshold, outcome.repaired_site_findings,
             outcome.baseline_checksum, outcome.repaired_checksum,
             outcome.checksums_match() ? "identical" : "DIVERGED",
             outcome.detect_ms, outcome.plan_ms, outcome.apply_ms,
             outcome.verify_ms,
             outcome.repaired(drop_threshold) ? "REPAIRED" : "NOT REPAIRED");
  return text;
}

}  // namespace pred::repair
