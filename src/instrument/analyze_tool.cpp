#include "instrument/analyze_tool.hpp"

#include <algorithm>
#include <cstdio>

#include "common/format.hpp"
#include "instrument/analysis/callgraph.hpp"
#include "instrument/analysis/cfg.hpp"
#include "instrument/analysis/constants.hpp"
#include "instrument/analysis/dominators.hpp"
#include "instrument/analysis/loops.hpp"
#include "instrument/analysis/predict.hpp"
#include "instrument/analysis/summaries.hpp"
#include "instrument/ir_parser.hpp"
#include "instrument/pass.hpp"
#include "report_io/json_writer.hpp"

namespace pred::ir {
namespace {

/// Everything the report needs, computed once and shared by the text and
/// JSON emitters so the two can never drift.
struct AnalyzeData {
  const Module* module = nullptr;
  PassStats s0;  ///< baseline: selective per-block dedup only
  PassStats s1;  ///< full pipeline (batching + merging + interproc + sync)
  SummaryTable summaries;
  StaticFsReport prediction;
  std::vector<RoleSpec> roles;
};

void emit_text(const AnalyzeOptions& opt, const AnalyzeData& d,
               std::string* out) {
  const Module& module = *d.module;
  append_fmt(*out, "%s: %zu function(s)\n", opt.path.c_str(),
             module.functions.size());
  for (const Function& fn : module.functions) {
    const Cfg cfg(fn);
    const DomTree dom(cfg);
    const ConstantFacts consts = analyze_constants(fn, cfg);
    const auto loops = find_natural_loops(cfg, dom);
    std::size_t max_depth = 0;
    for (const auto& l : loops) {
      max_depth = std::max<std::size_t>(max_depth, l.depth);
    }
    append_fmt(*out,
               "\nfunc %s: %zu blocks (%zu reachable), dom tree height %zu, "
               "%zu loop(s) (max depth %zu), %zu constant fact(s)\n",
               fn.name.c_str(), cfg.num_blocks(), cfg.num_reachable(),
               static_cast<std::size_t>(dom.tree_height()), loops.size(),
               max_depth, static_cast<std::size_t>(consts.facts));
    for (const auto& l : loops) {
      append_fmt(*out,
                 "  loop @ bb%u: %zu block(s), depth %u, %zu latch(es), %s\n",
                 l.header, l.blocks.size(), l.depth, l.latches.size(),
                 l.preheader == NaturalLoop::kNone
                     ? "no preheader"
                     : ("preheader bb" + std::to_string(l.preheader)).c_str());
    }
  }

  const CallGraph cg(module);
  std::size_t recursive = 0;
  for (std::uint32_t fi = 0; fi < cg.num_functions(); ++fi) {
    if (cg.in_cycle(fi)) ++recursive;
  }
  append_fmt(*out,
             "\ncall graph: %llu call site(s), %zu SCC(s), %zu recursive "
             "function(s)\n",
             static_cast<unsigned long long>(cg.num_call_sites()),
             cg.num_sccs(), recursive);
  for (std::uint32_t fi = 0; fi < cg.num_functions(); ++fi) {
    if (cg.callees(fi).empty()) continue;
    append_fmt(*out, "  %s ->", module.functions[fi].name.c_str());
    for (const std::uint32_t c : cg.callees(fi)) {
      append_fmt(*out, " %s", module.functions[c].name.c_str());
    }
    append_fmt(*out, "%s\n", cg.in_cycle(fi) ? "  [cycle]" : "");
  }

  append_fmt(*out, "\ncallee access summaries:\n");
  for (std::size_t fi = 0; fi < module.functions.size(); ++fi) {
    const AccessSummary& s = d.summaries.per_function[fi];
    if (s.exact) {
      append_fmt(*out,
                 "  %-16s exact: %zu entr%s, %llu access(es)/invocation%s\n",
                 module.functions[fi].name.c_str(), s.entries.size(),
                 s.entries.size() == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(s.total_accesses()),
                 s.syncs ? ", syncs" : "");
    } else {
      append_fmt(*out, "  %-16s unsummarizable (T)\n",
                 module.functions[fi].name.c_str());
    }
  }

  append_fmt(*out, "\ninstrumentation ledger (baseline -> pruned):\n");
  append_fmt(*out, "  candidate accesses   %8llu\n",
             static_cast<unsigned long long>(d.s0.candidate_accesses));
  append_fmt(*out, "  intrinsic sites      %8llu\n",
             static_cast<unsigned long long>(d.s0.intrinsic_accesses));
  append_fmt(*out, "  instrumented         %8llu -> %llu\n",
             static_cast<unsigned long long>(d.s0.instrumented_accesses),
             static_cast<unsigned long long>(d.s1.instrumented_accesses));
  append_fmt(*out, "  per-block duplicates %8llu\n",
             static_cast<unsigned long long>(d.s0.skipped_duplicates));
  append_fmt(*out, "  loop batched         %8llu (reports inserted %llu)\n",
             static_cast<unsigned long long>(d.s1.loop_batched),
             static_cast<unsigned long long>(d.s1.reports_inserted));
  append_fmt(*out, "  chain merged         %8llu\n",
             static_cast<unsigned long long>(d.s1.dominance_merged));
  append_fmt(*out, "  calls batched        %8llu (bare clones %llu)\n",
             static_cast<unsigned long long>(d.s1.call_batched),
             static_cast<unsigned long long>(d.s1.bare_clones));
  append_fmt(*out, "  sync scoped          %8llu\n",
             static_cast<unsigned long long>(d.s1.sync_scoped_skipped));
  if (d.s0.instrumented_accesses > 0) {
    append_fmt(*out, "  static site reduction %.1f%%\n",
               100.0 *
                   static_cast<double>(d.s0.instrumented_accesses -
                                       d.s1.instrumented_accesses) /
                   static_cast<double>(d.s0.instrumented_accesses));
  }

  if (opt.predict) {
    // Appended verbatim: the report can exceed any fixed format buffer.
    out->push_back('\n');
    out->append(format_static_report(d.prediction));
  }
}

void emit_json(const AnalyzeOptions& opt, const AnalyzeData& d,
               std::string* out) {
  const Module& module = *d.module;
  JsonWriter w;
  w.begin_object();
  w.field("file", opt.path);

  w.key("functions").begin_array();
  for (std::size_t fi = 0; fi < module.functions.size(); ++fi) {
    const Function& fn = module.functions[fi];
    const Cfg cfg(fn);
    const DomTree dom(cfg);
    const ConstantFacts consts = analyze_constants(fn, cfg);
    const auto loops = find_natural_loops(cfg, dom);
    w.begin_object();
    w.field("name", fn.name);
    w.field("blocks", static_cast<std::uint64_t>(cfg.num_blocks()));
    w.field("reachable_blocks",
            static_cast<std::uint64_t>(cfg.num_reachable()));
    w.field("dom_tree_height", static_cast<std::uint64_t>(dom.tree_height()));
    w.field("constant_facts", static_cast<std::uint64_t>(consts.facts));
    w.key("loops").begin_array();
    for (const auto& l : loops) {
      w.begin_object();
      w.field("header", static_cast<std::uint64_t>(l.header));
      w.field("blocks", static_cast<std::uint64_t>(l.blocks.size()));
      w.field("depth", static_cast<std::uint64_t>(l.depth));
      w.field("latches", static_cast<std::uint64_t>(l.latches.size()));
      if (l.preheader == NaturalLoop::kNone) {
        w.key("preheader").null_value();
      } else {
        w.field("preheader", static_cast<std::uint64_t>(l.preheader));
      }
      w.end_object();
    }
    w.end_array();
    const AccessSummary& s = d.summaries.per_function[fi];
    w.key("summary").begin_object();
    w.field("exact", s.exact);
    w.field("syncs", s.syncs);
    if (s.exact) {
      w.field("accesses_per_invocation", s.total_accesses());
      w.key("entries").begin_array();
      for (const AccessSummary::Entry& e : s.entries) {
        w.begin_object();
        w.field("arg", static_cast<std::uint64_t>(e.arg));
        w.field("offset", static_cast<std::int64_t>(e.offset));
        w.field("width", static_cast<std::uint64_t>(e.width));
        w.field("write", e.is_write);
        w.field("count", e.count);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  const CallGraph cg(module);
  std::uint64_t recursive = 0;
  for (std::uint32_t fi = 0; fi < cg.num_functions(); ++fi) {
    if (cg.in_cycle(fi)) ++recursive;
  }
  w.key("call_graph").begin_object();
  w.field("call_sites", cg.num_call_sites());
  w.field("sccs", static_cast<std::uint64_t>(cg.num_sccs()));
  w.field("recursive_functions", recursive);
  w.key("edges").begin_array();
  for (std::uint32_t fi = 0; fi < cg.num_functions(); ++fi) {
    if (cg.callees(fi).empty()) continue;
    w.begin_object();
    w.field("caller", module.functions[fi].name);
    w.key("callees").begin_array();
    for (const std::uint32_t c : cg.callees(fi)) {
      w.value(module.functions[c].name);
    }
    w.end_array();
    w.field("cycle", static_cast<bool>(cg.in_cycle(fi)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("ledger").begin_object();
  w.field("candidate_accesses", d.s0.candidate_accesses);
  w.field("intrinsic_sites", d.s0.intrinsic_accesses);
  w.field("instrumented_baseline", d.s0.instrumented_accesses);
  w.field("instrumented_pruned", d.s1.instrumented_accesses);
  w.field("per_block_duplicates", d.s0.skipped_duplicates);
  w.field("loop_batched", d.s1.loop_batched);
  w.field("reports_inserted", d.s1.reports_inserted);
  w.field("chain_merged", d.s1.dominance_merged);
  w.field("calls_batched", d.s1.call_batched);
  w.field("bare_clones", d.s1.bare_clones);
  w.field("sync_scoped", d.s1.sync_scoped_skipped);
  if (d.s0.instrumented_accesses > 0) {
    w.field("reduction_pct",
            100.0 *
                static_cast<double>(d.s0.instrumented_accesses -
                                    d.s1.instrumented_accesses) /
                static_cast<double>(d.s0.instrumented_accesses));
  }
  w.end_object();

  if (opt.predict) {
    const StaticFsReport& r = d.prediction;
    w.key("predict").begin_object();
    w.field("line_size", static_cast<std::uint64_t>(opt.line_size));
    w.field("opaque_sites", r.opaque_sites);
    w.key("roles").begin_array();
    for (const RoleSpec& spec : d.roles) {
      w.begin_object();
      w.field("role", static_cast<std::uint64_t>(spec.role));
      w.field("function", spec.function);
      w.field("region", static_cast<std::uint64_t>(spec.region));
      w.end_object();
    }
    w.end_array();
    w.key("footprints").begin_array();
    for (const RoleFootprint& fp : r.footprints) {
      w.begin_object();
      w.field("role", static_cast<std::uint64_t>(fp.role));
      w.field("function", fp.function);
      w.field("region", static_cast<std::uint64_t>(fp.region));
      w.field("intervals", static_cast<std::uint64_t>(fp.intervals.size()));
      w.field("weight", fp.resolved_weight);
      w.field("opaque", fp.opaque_sites);
      w.field("confined", fp.confined_skipped);
      w.field("segments", fp.segments);
      w.end_object();
    }
    w.end_array();
    w.key("regions").begin_array();
    for (std::size_t g = 0; g < r.region_extent.size(); ++g) {
      w.begin_object();
      w.field("region", static_cast<std::uint64_t>(g));
      w.field("extent", r.region_extent[g]);
      w.field("slot_stride", r.region_slot_stride[g]);
      w.end_object();
    }
    w.end_array();
    w.key("lines").begin_array();
    for (const PredictedLine& l : r.lines) {
      w.begin_object();
      w.field("region", static_cast<std::uint64_t>(l.region));
      w.field("line_index", static_cast<std::int64_t>(l.line_index));
      w.field("line_size", static_cast<std::uint64_t>(l.line_size));
      w.field("score", l.score);
      w.field("ww_weight", l.ww_weight);
      w.field("wr_weight", l.wr_weight);
      w.field("false_sharing", l.false_sharing);
      w.field("true_sharing", l.true_sharing);
      w.field("latent", l.latent);
      w.key("spans").begin_array();
      for (const RoleSpan& s : l.spans) {
        w.begin_object();
        w.field("role", static_cast<std::uint64_t>(s.role));
        w.field("lo", static_cast<std::uint64_t>(s.lo));
        w.field("hi", static_cast<std::uint64_t>(s.hi));
        w.field("writes", s.write_weight);
        w.field("reads", s.read_weight);
        w.field("handed_off_only", s.handed_off_only);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  *out += w.str();
  *out += '\n';
}

const Flag<AnalyzeOptions> kAnalyzeFlags[] = {
    {"--json", nullptr, 1, "emit the report as one JSON document",
     [](AnalyzeOptions& o, const char*) { o.json = true; return true; }},
    {"--predict", nullptr, 1,
     "also run the static false-sharing predictor (thread roles = "
     "call-graph roots)",
     [](AnalyzeOptions& o, const char*) { o.predict = true; return true; }},
    {"--line-size", "N", 1,
     "cache-line size for --predict, a power of two (default 64; latent "
     "conflicts reported at 2N)",
     [](AnalyzeOptions& o, const char* s) {
       std::size_t v = 0;
       if (!parse_uint(s, &v, 1) || (v & (v - 1)) != 0) return false;
       o.line_size = v;
       return true;
     }},
};

}  // namespace

std::span<const Flag<AnalyzeOptions>> analyze_flags() { return kAnalyzeFlags; }

bool parse_analyze_args(const std::vector<std::string>& args,
                        AnalyzeOptions* opt, std::string* err) {
  if (!parse_flags(args, kAnalyzeFlags, 1, *opt, &opt->path, err)) {
    return false;
  }
  if (opt->path.empty()) {
    *err = "missing <module.pir> path";
    return false;
  }
  return true;
}

int run_analyze(const AnalyzeOptions& opt, std::string* out,
                std::string* err) {
  std::FILE* f = std::fopen(opt.path.c_str(), "rb");
  if (f == nullptr) {
    *err += "cannot open " + opt.path + "\n";
    return 1;
  }
  std::string text;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);

  const ParseResult parsed = parse_module(text);
  if (!parsed.ok) {
    *err += opt.path + ": " + parsed.error + "\n";
    return 1;
  }

  AnalyzeData d;
  d.module = &parsed.module;
  Module base = parsed.module;
  Module pruned = parsed.module;
  d.s0 = run_instrumentation_pass(base, {});
  PassOptions all;
  all.loop_batching = true;
  all.dominance_elim = true;
  all.interprocedural = true;
  all.sync_scoped = true;
  d.s1 = run_instrumentation_pass(pruned, all, &d.summaries);
  if (opt.predict) {
    d.roles = default_roles(parsed.module);
    PredictOptions popt;
    popt.line_size = opt.line_size;
    popt.extra_line_sizes = {opt.line_size * 2};
    d.prediction = predict_static_fs(parsed.module, d.roles, popt);
  }

  if (opt.json) {
    emit_json(opt, d, out);
  } else {
    emit_text(opt, d, out);
  }

  if (!d.s0.reconciles() || !d.s1.reconciles()) {
    *err += "pass statistics do not reconcile\n";
    return 1;
  }
  return 0;
}

}  // namespace pred::ir
