// Measures what the whole-function pruning passes buy on generated
// loop-heavy IR modules: fewer static instrumentation sites, fewer dynamic
// runtime calls, and higher interpreter throughput — all at an identical
// delivered-access stream (tests/test_analysis.cpp proves the resulting
// detector reports are bit-identical).
//
// Configurations, cumulative over the Section 2.4.2 per-block dedup:
//   selective    per-block dedup only (the seed pipeline)
//   +dominance   plus value-numbered chain merging
//   +batching    plus loop-invariant hoisting into trip-count reports
//   all          both whole-function passes
//
// A second, call-heavy workload set (generated with a callee pool) then
// measures what the interprocedural layer adds on top: exact callee
// summaries let loops batch THROUGH calls ("+interproc"), retargeting them
// to uninstrumented "$bare" clones — the headline criterion is the
// additional dynamic runtime-call reduction over the intraprocedural
// passes alone.
//
// Counts (static sites, runtime calls, delivered accesses) come from one
// pass of 6 rounds per configuration. Times, in the bench thread's CPU
// time, come from the same modules run for enough rounds that the fastest
// configuration of the set took at least 120 ms, repeated 5 times with the
// configurations interleaved; each row prints the median and min-max of
// its repetitions. `pruned_speedup` is the loop-heavy `selective` median
// over the `all` median, and `interproc_speedup` the call-heavy
// `selective` median over the `+interproc` median: what the pruning passes
// buy in time, which batched calls deliver only when the runtime retires
// them in closed form.
//
//   microbench_instrument [--json]   (--json also writes BENCH_instrument.json)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "instrument/analysis/generator.hpp"
#include "instrument/interp.hpp"
#include "instrument/pass.hpp"

using namespace pred;

namespace {

struct Config {
  const char* name;
  bool dominance;
  bool batching;
  bool interproc = false;
};

struct Result {
  std::uint64_t static_sites = 0;    // marked accesses + intrinsics + reports
  std::uint64_t runtime_calls = 0;   // dynamic calls into the runtime
  std::uint64_t delivered = 0;       // access units the detector consumed
  std::vector<double> seconds;       // one timed repetition each
};

constexpr std::size_t kBufWords = 1024;
alignas(64) std::int64_t g_buffer[kBufWords];
constexpr std::int64_t kIterations = 128;
constexpr int kCountRounds = 6;
constexpr int kRepetitions = 5;
constexpr double kMinSeconds = 0.1;

/// The modules of one configuration, pruned by its passes, with the entry
/// points every configuration drives.
struct Pruned {
  std::vector<ir::Module> modules;
  std::vector<std::size_t> entries;  // original functions per module
};

Pruned prune(const std::vector<ir::Module>& modules, const Config& cfg,
             Result& res) {
  Pruned p{modules, std::vector<std::size_t>(modules.size())};
  ir::PassOptions opt;
  opt.dominance_elim = cfg.dominance;
  opt.loop_batching = cfg.batching;
  opt.interprocedural = cfg.interproc;
  // An interprocedural pass may append "$bare" clones; drive only the
  // original functions so every configuration runs the same entry points.
  for (std::size_t i = 0; i < p.modules.size(); ++i) {
    p.entries[i] = p.modules[i].functions.size();
    const ir::PassStats stats = ir::run_instrumentation_pass(p.modules[i], opt);
    res.static_sites += stats.instrumented_accesses + stats.intrinsic_accesses +
                        stats.reports_inserted;
  }
  return p;
}

/// Runs `rounds` rounds of every entry point from two logical threads
/// against a fresh session and returns the calling thread's CPU time, so
/// time the host gives other tenants does not count; adds the calls and
/// deliveries to `res` when given.
double run_rounds(const Pruned& p, int rounds, Result* res) {
  // Deterministic detector configuration (same as the report-equivalence
  // property test): full sampling, no prediction, every line pre-escalated.
  SessionOptions sopts;
  sopts.runtime.tracking_threshold = 1;
  sopts.runtime.report_invalidation_threshold = 1;
  sopts.runtime.prediction_enabled = false;
  sopts.runtime.set_sampling_rate(1.0);
  sopts.heap_size = 4 * 1024 * 1024;
  Session session(sopts);
  std::memset(g_buffer, 0, sizeof g_buffer);
  session.register_global(g_buffer, sizeof g_buffer, "bench_buffer");
  for (std::size_t w = 0; w < kBufWords; w += 8) {
    session.record(&g_buffer[w], AccessType::kWrite, 0, 8);
  }

  ir::Interpreter interp(&session);
  const std::int64_t args[] = {
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(g_buffer)),
      kIterations};
  const double t0 = bench::thread_cpu_seconds();
  for (int round = 0; round < rounds; ++round) {
    for (ThreadId tid = 0; tid < 2; ++tid) {
      for (std::size_t i = 0; i < p.modules.size(); ++i) {
        const ir::Module& m = p.modules[i];
        for (std::size_t f = 0; f < p.entries[i]; ++f) {
          const auto r = interp.run(m, m.functions[f], args, tid);
          if (res != nullptr) {
            res->runtime_calls += r.runtime_calls;
            res->delivered += r.accesses_delivered;
          }
        }
      }
    }
  }
  return bench::thread_cpu_seconds() - t0;
}

/// Counts every configuration of a set in one pass of kCountRounds rounds,
/// then times each kRepetitions times, interleaving the configurations, at
/// rounds that take the fastest configuration at least 1.2 kMinSeconds.
/// Returns the rounds timed.
int measure_set(const std::vector<ir::Module>& modules,
                std::span<const Config> configs, std::vector<Result>& out) {
  std::vector<Pruned> pruned;
  out.assign(configs.size(), Result{});
  double seconds = 0;
  std::size_t fastest = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    pruned.push_back(prune(modules, configs[c], out[c]));
    const double t = run_rounds(pruned[c], kCountRounds, &out[c]);
    if (c == 0 || t < seconds) {
      seconds = t;
      fastest = c;
    }
  }
  // Scale the rounds by the fastest configuration's time until it takes
  // 1.2 kMinSeconds: the counting pass ran cold and reads slow.
  int rounds = kCountRounds;
  while (seconds < 1.2 * kMinSeconds) {
    rounds = static_cast<int>(std::ceil(rounds * 1.5 * kMinSeconds / seconds));
    seconds = run_rounds(pruned[fastest], rounds, nullptr);
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      out[c].seconds.push_back(run_rounds(pruned[c], rounds, nullptr));
    }
  }
  return rounds;
}

void print_header(int rounds) {
  std::printf("%-12s %12s %14s %14s %10s %19s %12s\n", "config",
              "static sites", "runtime calls", "delivered", "median s",
              "min-max s", "ns/delivered");
  std::printf("(counts: %d rounds; times: %d rounds, %d repetitions)\n",
              kCountRounds, rounds, kRepetitions);
  bench::print_rule('-', 100);
}

void print_row(const char* name, const Result& r, int rounds) {
  const double med = bench::median(r.seconds);
  const auto [lo, hi] = std::minmax_element(r.seconds.begin(), r.seconds.end());
  const double delivered =
      static_cast<double>(r.delivered) * rounds / kCountRounds;
  std::printf("%-12s %12llu %14llu %14llu %10.4f %9.4f-%-9.4f %12.2f\n", name,
              static_cast<unsigned long long>(r.static_sites),
              static_cast<unsigned long long>(r.runtime_calls),
              static_cast<unsigned long long>(r.delivered), med, *lo, *hi,
              delivered > 0 ? med * 1e9 / delivered : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::string(argv[1]) == "--json";

  // Loop-heavy generated modules: more segments and denser blocks than the
  // generator default, so invariant-in-loop accesses dominate.
  ir::GeneratorOptions gopts;
  gopts.segments = 5;
  gopts.accesses_per_block = 4;
  std::vector<ir::Module> modules;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    modules.push_back(ir::generate_module(seed, gopts));
  }

  const Config configs[] = {
      {"selective", false, false},
      {"+dominance", true, false},
      {"+batching", false, true},
      {"all", true, true},
  };
  std::vector<Result> results;
  const int rounds = measure_set(modules, configs, results);
  print_header(rounds);
  for (std::size_t c = 0; c < results.size(); ++c) {
    print_row(configs[c].name, results[c], rounds);
  }

  const Result& base = results[0];
  const Result& all = results[3];
  const double call_reduction =
      base.runtime_calls
          ? 100.0 *
                static_cast<double>(base.runtime_calls - all.runtime_calls) /
                static_cast<double>(base.runtime_calls)
          : 0.0;
  const bool conserved = base.delivered == all.delivered &&
                         results[1].delivered == base.delivered &&
                         results[2].delivered == base.delivered;
  const double pruned_speedup =
      bench::median(base.seconds) / bench::median(all.seconds);
  std::printf("\nruntime-call reduction (all vs selective): %.1f%%\n",
              call_reduction);
  std::printf("pruned_speedup (selective / all, median time): %.3f\n",
              pruned_speedup);
  std::printf("delivered access stream conserved: %s\n",
              conserved ? "yes" : "NO — pruning is unsound");

  // Call-heavy set: the same generator with a callee pool, so hot loops
  // spend their iterations inside calls — the workloads the intraprocedural
  // passes cannot touch and call batching through summaries can.
  ir::GeneratorOptions copts;
  copts.segments = 5;
  copts.accesses_per_block = 4;
  copts.callees = 5;
  copts.summarizable_callees = true;  // hot accessor-helper shape
  std::vector<ir::Module> call_modules;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    call_modules.push_back(ir::generate_module(seed, copts));
  }

  const Config call_configs[] = {
      {"selective", false, false, false},
      {"intra", true, true, false},     // PR 4 pipeline: no call knowledge
      {"+interproc", true, true, true}, // plus summaries + call batching
  };
  std::printf("\ncall-heavy modules (callee pool %u):\n", copts.callees);
  std::vector<Result> call_results;
  const int call_rounds = measure_set(call_modules, call_configs, call_results);
  print_header(call_rounds);
  for (std::size_t c = 0; c < call_results.size(); ++c) {
    print_row(call_configs[c].name, call_results[c], call_rounds);
  }
  const Result& c_sel = call_results[0];
  const Result& c_intra = call_results[1];
  const Result& c_inter = call_results[2];
  const double callheavy_reduction =
      c_intra.runtime_calls
          ? 100.0 *
                static_cast<double>(c_intra.runtime_calls -
                                    c_inter.runtime_calls) /
                static_cast<double>(c_intra.runtime_calls)
          : 0.0;
  const bool call_conserved = c_sel.delivered == c_intra.delivered &&
                              c_sel.delivered == c_inter.delivered;
  const double interproc_speedup =
      bench::median(c_sel.seconds) / bench::median(c_inter.seconds);
  std::printf(
      "\nadditional runtime-call reduction (+interproc vs intra): %.1f%%\n",
      callheavy_reduction);
  std::printf(
      "interproc_speedup (selective / +interproc, median time): %.3f\n",
      interproc_speedup);
  std::printf("delivered access stream conserved: %s\n",
              call_conserved ? "yes" : "NO — pruning is unsound");

  if (json) {
    bench::JsonWriter w;
    w.add("static_sites_selective", static_cast<double>(base.static_sites));
    w.add("static_sites_all", static_cast<double>(all.static_sites));
    w.add("runtime_calls_selective", static_cast<double>(base.runtime_calls));
    w.add("runtime_calls_dominance",
          static_cast<double>(results[1].runtime_calls));
    w.add("runtime_calls_batching",
          static_cast<double>(results[2].runtime_calls));
    w.add("runtime_calls_all", static_cast<double>(all.runtime_calls));
    w.add("call_reduction_pct", call_reduction);
    w.add("delivered_conserved", conserved ? 1.0 : 0.0);
    w.add("rounds", rounds);
    w.add("seconds_selective", bench::median(base.seconds));
    w.add("seconds_dominance", bench::median(results[1].seconds));
    w.add("seconds_batching", bench::median(results[2].seconds));
    w.add("seconds_all", bench::median(all.seconds));
    w.add("pruned_speedup", pruned_speedup);
    w.add("runtime_calls_callheavy_selective",
          static_cast<double>(c_sel.runtime_calls));
    w.add("runtime_calls_callheavy_intra",
          static_cast<double>(c_intra.runtime_calls));
    w.add("runtime_calls_callheavy_interproc",
          static_cast<double>(c_inter.runtime_calls));
    w.add("call_reduction_callheavy_pct", callheavy_reduction);
    w.add("delivered_conserved_callheavy", call_conserved ? 1.0 : 0.0);
    w.add("rounds_callheavy", call_rounds);
    w.add("seconds_callheavy_selective", bench::median(c_sel.seconds));
    w.add("seconds_callheavy_intra", bench::median(c_intra.seconds));
    w.add("seconds_callheavy_interproc", bench::median(c_inter.seconds));
    w.add("interproc_speedup", interproc_speedup);
    if (!w.write_file("BENCH_instrument.json")) {
      std::fprintf(stderr, "cannot write BENCH_instrument.json\n");
      return 1;
    }
    std::printf("wrote BENCH_instrument.json\n");
  }
  return conserved && call_conserved ? 0 : 1;
}
