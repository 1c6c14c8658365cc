// Workload `ir_pipeline`: the compile side. Seeded generated modules in
// three shapes (loop-heavy, call-heavy, sync-segment) plus the examples/ir
// corpus are printed, parsed, instrumented at selective-only and at every
// count-exact pruning pass plus sync-scoped pruning, and given to the
// static predictor. Each module's call-graph roots then run in the mini-IR
// interpreter without a session, at selective-only and pruned, so the pass
// savings show up as wall time. Planted-slot modules score the static
// predictor, and the two closed repair loops run through CacheSim.
#include <dirent.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "instrument/analysis/generator.hpp"
#include "instrument/analysis/predict.hpp"
#include "instrument/interp.hpp"
#include "instrument/ir_parser.hpp"
#include "instrument/pass.hpp"
#include "repair/targets.hpp"
#include "repair/verifier.hpp"
#include "sim/cache_sim.hpp"

namespace perfbench {
namespace {

namespace ir = pred::ir;

constexpr std::uint32_t kModulesPerShape = 96;
constexpr std::uint32_t kPlanted = 4;  ///< per stride: packed and padded
constexpr std::int64_t kIterations = 512;
constexpr std::size_t kBufWords = 8192;
constexpr std::uint64_t kStepLimit = 50'000'000;
constexpr std::uint64_t kRepairScale = 8;

/// The interpreter's memory: one buffer per execution configuration.
alignas(64) std::int64_t g_bufs[3][kBufWords];

struct Unit {
  std::string name;
  ir::Module source;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<Unit> generate(std::uint64_t seed) {
  std::vector<Unit> units;
  ir::GeneratorOptions loop;
  loop.segments = 5;
  loop.accesses_per_block = 4;
  ir::GeneratorOptions call = loop;
  call.callees = 5;
  call.summarizable_callees = true;
  ir::GeneratorOptions sync;
  sync.sync_segments = 2;
  const std::pair<const char*, ir::GeneratorOptions> shapes[] = {
      {"loop", loop}, {"call", call}, {"sync", sync}};
  for (const auto& [shape, gopts] : shapes) {
    for (std::uint32_t i = 0; i < kModulesPerShape; ++i) {
      const std::uint64_t s = mix(seed * 1000 + units.size());
      units.push_back({std::string(shape) + "#" + std::to_string(s),
                       ir::generate_module(s, gopts)});
    }
  }
  return units;
}

std::vector<Unit> read_corpus(const std::string& dir, Round& round) {
  std::vector<std::string> files;
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* e = readdir(d)) {
      const std::string f = e->d_name;
      if (f.size() > 4 && f.compare(f.size() - 4, 4, ".pir") == 0) {
        files.push_back(f);
      }
    }
    closedir(d);
  }
  std::sort(files.begin(), files.end());
  round.check(!files.empty(), "no .pir modules in " + dir);
  std::vector<Unit> units;
  for (const std::string& f : files) {
    std::ifstream in(dir + "/" + f);
    std::stringstream text;
    text << in.rdbuf();
    ir::ParseResult parsed = ir::parse_module(text.str());
    if (round.check(parsed.ok, "corpus " + f + ": " + parsed.error)) {
      units.push_back({f, std::move(parsed.module)});
    }
  }
  return units;
}

/// Roots the interpreter runs: every call-graph root taking (buf) or
/// (buf, n). Corpus functions with other signatures are compiled only.
std::vector<std::size_t> entry_points(const ir::Module& m) {
  std::vector<std::size_t> out;
  for (const ir::RoleSpec& r : ir::default_roles(m)) {
    for (std::size_t f = 0; f < m.functions.size(); ++f) {
      if (m.functions[f].name == r.function && m.functions[f].num_args <= 2) {
        out.push_back(f);
      }
    }
  }
  return out;
}

/// One execution configuration: its instrumented modules, its own copy of
/// the seeded buffer, and the session watching it (none for the native
/// baseline). Configurations run module by module in turn, so load that
/// drifts across the round cancels out of their ratios.
struct Exec {
  explicit Exec(std::int64_t* buffer) : buf(buffer) {}

  std::int64_t* buf;
  std::unique_ptr<pred::Session> session;
  double seconds = 0;
  std::uint64_t calls = 0;
  std::uint64_t delivered = 0;
  std::vector<std::int64_t> returns;
  std::vector<std::uint64_t> delivered_each;

  void start(std::uint64_t seed, bool instrumented) {
    for (std::size_t i = 0; i < kBufWords; ++i) {
      buf[i] = static_cast<std::int64_t>(mix(seed + i) % 1000);
    }
    if (!instrumented) return;
    pred::SessionOptions o;
    o.heap_size = 4 * 1024 * 1024;  // the interpreter's memory is one global
    session = std::make_unique<pred::Session>(o);
    session->register_global(buf, kBufWords * sizeof(std::int64_t),
                             "ir_pipeline_buffer");
  }

  /// Runs the module's entry points as logical threads 0 and 1.
  void run(Round& round, const ir::Module& module,
           const std::vector<std::size_t>& entries) {
    ir::Interpreter interp(session.get(), kStepLimit);
    const std::int64_t args[] = {
        static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(buf)),
        kIterations};
    const auto t0 = Clock::now();
    for (std::size_t f : entries) {
      for (pred::ThreadId tid = 0; tid < 2; ++tid) {
        const ir::Function& fn = module.functions[f];
        const ir::ExecResult r =
            interp.run(module, fn, std::span(args, fn.num_args), tid);
        round.check(!r.step_limit_exceeded, "interpreter step limit");
        calls += r.runtime_calls;
        delivered += r.accesses_delivered;
        returns.push_back(r.return_value);
        delivered_each.push_back(r.accesses_delivered);
      }
    }
    seconds += seconds_since(t0);
  }
};

bool predicts_false_sharing(const ir::StaticFsReport& rep) {
  for (const ir::PredictedLine& l : rep.lines) {
    if (l.false_sharing && !l.latent && l.line_size == 64) return true;
  }
  return false;
}

/// Static prediction on planted-slot modules: 16-byte slots pack four to a
/// line (false sharing the predictor must find), 64-byte slots do not.
void score_planted(Round& round, std::uint64_t seed) {
  Tracer& tr = round.tracer();
  for (const std::uint32_t stride : {16u, 64u}) {
    for (std::uint32_t i = 0; i < kPlanted; ++i) {
      ir::GeneratorOptions g;
      g.segments = 2;
      g.planted_slots = 4;
      g.planted_stride = stride;
      const ir::Module m = ir::generate_module(mix(seed * 7 + i), g);
      std::vector<ir::RoleSpec> roles;
      for (std::uint32_t t = 0; t < g.planted_slots; ++t) {
        roles.push_back({"slot" + std::to_string(t), t, 0, 0, 0, 0});
      }
      ir::StaticFsReport rep;
      const double s = tr.time("analysis.predict", [&] {
        rep = ir::predict_static_fs(m, roles);
      });
      round.add("analysis.predict_ms", s * 1e3);
      const bool fs = predicts_false_sharing(rep);
      if (stride == 16) {
        round.check(fs, "static predictor missed a planted 16-byte slot");
        round.add("sites.expected", 1);
        round.add("sites.found", fs ? 1 : 0);
      } else {
        round.add("clean.kernels", 1);
        round.add("clean.passed", fs ? 0 : 1);
        round.add("false_positives", fs ? 1 : 0);
      }
    }
  }
}

void run_repairs(Round& round) {
  Tracer& tr = round.tracer();
  double total = 0, drop = 0;
  pred::repair::VerifierOptions vo;
  vo.scale = kRepairScale;
  for (const bool is_static : {false, true}) {
    const char* name = is_static ? "global_grid" : "counter_pool";
    const pred::repair::RepairTarget* target =
        pred::repair::find_repair_target(name);
    if (!round.check(target != nullptr, std::string("repair target ") + name)) {
      continue;
    }
    pred::repair::RepairOutcome out;
    total += tr.time("repair.loop", [&] {
      out = is_static ? pred::repair::run_static_repair_loop(*target, vo)
                      : pred::repair::run_repair_loop(*target, vo);
    });
    round.check(out.repaired(vo.drop_threshold),
                std::string("repair of ") + name + " is not REPAIRED");
    round.add("repair.plan_ms", out.plan_ms);
    drop += out.drop_pct() / 2;

    // The target's baseline traces through the coherence simulator alone.
    pred::Session s(pred::repair::detection_session_options());
    const pred::repair::RunResult run =
        target->run(s, nullptr, vo.threads, vo.scale);
    pred::CacheSim sim(vo.sim);
    pred::SimStats stats;
    const double sim_s = tr.time("sim.simulate", [&] {
      stats = pred::simulate_interleaved(sim, run.traces, vo.quantum);
    });
    round.add("sim.accesses", static_cast<double>(stats.accesses));
    round.add("sim.seconds", sim_s);
    round.add("sim.invalidations",
              static_cast<double>(stats.invalidations_sent));
  }
  round.set("repair.invalidation_drop", drop);
  round.set("repair.loop_s", total);
  round.set("sim.accesses_per_s",
            round.get("sim.accesses") / round.get("sim.seconds"));
}

}  // namespace

void run_ir_pipeline(Round& round) {
  Tracer& tr = round.tracer();
  const Options& opt = round.options();

  std::vector<Unit> units;
  Exec native(g_bufs[0]), sel(g_bufs[1]), pru(g_bufs[2]);
  double setup = tr.time("setup", [&] {
    tr.time("analysis.generate", [&] { units = generate(opt.seed); });
    for (Unit& u : read_corpus(opt.corpus_dir, round)) {
      units.push_back(std::move(u));
    }
    tr.time("api.session_setup", [&] {
      native.start(opt.seed, false);
      sel.start(opt.seed, true);
      pru.start(opt.seed, true);
    });
  });

  ir::PassOptions selective_opts;
  ir::PassOptions pruned_opts;
  pruned_opts.loop_batching = true;
  pruned_opts.dominance_elim = true;
  pruned_opts.interprocedural = true;
  pruned_opts.sync_scoped = true;

  std::vector<ir::Module> selective, pruned;
  std::vector<std::vector<std::size_t>> entries;
  std::vector<bool> count_exact;
  std::vector<ir::StaticFsReport> static_reports;
  double compile_s = 0, predicted_lines = 0;
  for (const Unit& u : units) {
    ir::ParseResult parsed;
    const double parse_s = tr.time("instrument.parse", [&] {
      parsed = ir::parse_module(ir::to_string(u.source));
    });
    round.check(parsed.ok && ir::to_string(parsed.module) ==
                                 ir::to_string(u.source),
                "print/parse round trip of " + u.name);
    ir::Module sel_module = parsed.module;
    ir::Module pru_module = parsed.module;
    ir::PassStats pruned_stats;
    const double pass_s = tr.time("instrument.pass", [&] {
      round.check(ir::run_instrumentation_pass(sel_module, selective_opts)
                      .reconciles(),
                  "selective pass ledger of " + u.name);
      pruned_stats = ir::run_instrumentation_pass(pru_module, pruned_opts);
    });
    round.check(pruned_stats.reconciles(), "pruned pass ledger of " + u.name);
    ir::StaticFsReport rep;
    const double predict_s = tr.time("analysis.predict", [&] {
      rep = ir::predict_static_fs(parsed.module,
                                  ir::default_roles(parsed.module));
    });
    predicted_lines += static_cast<double>(rep.lines.size());
    static_reports.push_back(std::move(rep));
    round.add("instrument.parse_ms", parse_s * 1e3);
    round.add("instrument.pass_ms", pass_s * 1e3);
    round.add("analysis.predict_ms", predict_s * 1e3);
    compile_s += parse_s + pass_s + predict_s;

    entries.push_back(entry_points(parsed.module));
    count_exact.push_back(pruned_stats.sync_scoped_skipped == 0);
    selective.push_back(std::move(sel_module));
    pruned.push_back(std::move(pru_module));
  }
  round.set("instrument.compile_modules_per_s",
            static_cast<double>(units.size()) / compile_s);
  round.set("analysis.predicted_lines", predicted_lines);
  round.set("instrument.modules", static_cast<double>(units.size()));

  for (std::size_t m = 0; m < units.size(); ++m) {
    tr.time("instrument.interp_native",
            [&] { native.run(round, selective[m], entries[m]); });
    tr.time("instrument.interp_selective",
            [&] { sel.run(round, selective[m], entries[m]); });
    tr.time("instrument.interp_pruned",
            [&] { pru.run(round, pruned[m], entries[m]); });
  }
  round.check(native.returns == sel.returns && sel.returns == pru.returns,
              "interpreter return values differ across pass levels");
  std::size_t k = 0;
  for (std::size_t m = 0; m < units.size(); ++m) {
    for (std::size_t j = 0; j < entries[m].size() * 2; ++j, ++k) {
      const bool ok = count_exact[m]
                          ? sel.delivered_each[k] == pru.delivered_each[k]
                          : pru.delivered_each[k] <= sel.delivered_each[k];
      round.check(ok, "delivered accesses differ in " + units[m].name);
    }
  }
  round.set("instrument.calls_selective", static_cast<double>(sel.calls));
  round.set("instrument.calls_pruned", static_cast<double>(pru.calls));
  round.set("instrument.call_reduction",
            1.0 - static_cast<double>(pru.calls) /
                      static_cast<double>(sel.calls));
  round.set("instrument.interp_native_s", native.seconds);
  round.set("instrument.interp_selective_s", sel.seconds);
  round.set("instrument.interp_pruned_s", pru.seconds);

  pred::Report report;
  double report_s = build_report(round, *pru.session, &report);
  double static_bytes = 0;
  report_s += median_seconds(kReportReps, [&] {
    tr.time("analysis.format", [&] {
      static_bytes = 0;
      for (const ir::StaticFsReport& r : static_reports) {
        static_bytes += static_cast<double>(ir::format_static_report(r).size());
      }
    });
  });
  round.add("report_io.bytes", static_bytes);
  account_session(round, *sel.session, sel.delivered, nullptr);
  account_session(round, *pru.session, pru.delivered, &report);

  score_planted(round, opt.seed);
  run_repairs(round);

  round.set("setup_s", setup);
  round.set("slowdown_x", pru.seconds / native.seconds);
  round.set("accesses_per_s", static_cast<double>(pru.delivered) / pru.seconds);
  round.set("report_s", report_s);
}

}  // namespace perfbench
