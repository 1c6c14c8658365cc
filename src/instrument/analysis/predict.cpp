#include "instrument/analysis/predict.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/format.hpp"
#include "instrument/analysis/callgraph.hpp"
#include "instrument/analysis/cfg.hpp"
#include "instrument/analysis/constants.hpp"
#include "instrument/analysis/dominators.hpp"
#include "instrument/analysis/escape.hpp"
#include "instrument/analysis/loops.hpp"
#include "instrument/analysis/value_numbering.hpp"

namespace pred::ir {
namespace {

using Value = ValueNumbering::Value;

/// Weights saturate well below uint64 overflow so pair products (weight ×
/// weight) stay representable and the score keeps ordering deeply nested
/// loops sanely instead of wrapping.
constexpr std::uint64_t kWeightCap = 1ull << 40;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t r = a + b;
  return (r < a || r > kWeightCap * 2) ? kWeightCap * 2 : r;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kWeightCap / b) return kWeightCap;
  return a * b;
}

std::int64_t floor_div(std::int64_t a, std::int64_t d) {
  return a >= 0 ? a / d : -((-a + d - 1) / d);
}

// ---------------------------------------------------------------------------
// Trip-count estimation
// ---------------------------------------------------------------------------

/// Recognizes the canonical counted loop at `loop.header`:
///     cmp = CmpLt(ind, bound);  CondBr cmp -> body | exit
/// with `bound` constant at header entry, the body on the true edge only.
/// Init is recovered by running the constant transfer through the preheader
/// (falling back to 0, the interpreter's zero-init, when unprovable); the
/// step by value-numbering every loop block and requiring each redefinition
/// of `ind` to be (header-entry ind + one positive constant). Anything else
/// returns `assumed_trip` — weights rank, they never prove.
std::uint64_t estimate_trip(const Function& fn, const NaturalLoop& loop,
                            const ConstantFacts& consts,
                            std::uint64_t assumed_trip) {
  const BasicBlock& header = fn.blocks[loop.header];
  if (header.instrs.empty()) return assumed_trip;
  const Instr& term = header.instrs.back();
  if (term.op != Opcode::kCondBr) return assumed_trip;
  if (!loop.contains(term.target) || loop.contains(term.target2)) {
    return assumed_trip;  // not the body-on-true shape
  }
  // Last definition of the branch condition inside the header must be the
  // compare itself.
  const Instr* cmp = nullptr;
  for (auto it = header.instrs.rbegin(); it != header.instrs.rend(); ++it) {
    if (&*it == &term) continue;
    const Instr& in = *it;
    const bool defines_cond =
        in.dst == term.a &&
        (in.op == Opcode::kConst || in.op == Opcode::kMove ||
         in.op == Opcode::kAdd || in.op == Opcode::kSub ||
         in.op == Opcode::kMul || in.op == Opcode::kDiv ||
         in.op == Opcode::kRem || in.op == Opcode::kCmpLt ||
         in.op == Opcode::kCmpEq || in.op == Opcode::kLoad ||
         in.op == Opcode::kCall);
    if (defines_cond) {
      if (in.op == Opcode::kCmpLt) cmp = &in;
      break;
    }
  }
  if (cmp == nullptr) return assumed_trip;
  const Reg ind = cmp->a;
  const Reg bound = cmp->b;
  if (loop.header >= consts.block_entry.size()) return assumed_trip;
  const ConstantAnalysis::State& at_header = consts.block_entry[loop.header];
  if (bound >= at_header.size() || !at_header[bound].is_const()) {
    return assumed_trip;
  }
  const std::int64_t bound_v = at_header[bound].value;

  std::int64_t init_v = 0;  // zero-init default; canonical loops count from 0
  if (loop.preheader != NaturalLoop::kNone &&
      loop.preheader < consts.block_entry.size() &&
      !consts.block_entry[loop.preheader].empty()) {
    ConstantAnalysis::State s = consts.block_entry[loop.preheader];
    for (const Instr& in : fn.blocks[loop.preheader].instrs) {
      ConstantAnalysis::transfer_instr(in, &s);
    }
    if (ind < s.size() && s[ind].is_const()) init_v = s[ind].value;
  }

  std::int64_t step = 0;
  for (const std::uint32_t b : loop.blocks) {
    ValueNumbering vn(fn);
    if (b < consts.block_entry.size()) {
      vn.seed_constants(consts.block_entry[b]);
    }
    for (const Instr& in : fn.blocks[b].instrs) {
      const bool redefines_ind =
          in.dst == ind &&
          (in.op == Opcode::kConst || in.op == Opcode::kMove ||
           in.op == Opcode::kAdd || in.op == Opcode::kSub ||
           in.op == Opcode::kMul || in.op == Opcode::kDiv ||
           in.op == Opcode::kRem || in.op == Opcode::kCmpLt ||
           in.op == Opcode::kCmpEq || in.op == Opcode::kLoad ||
           in.op == Opcode::kCall);
      if (redefines_ind) {
        vn.apply(in);
        const Value v = vn.value_of(ind);
        if (v.base != Value::Base::kEntryReg || v.id != ind || v.offset <= 0 ||
            (step != 0 && step != v.offset)) {
          return assumed_trip;
        }
        step = v.offset;
        continue;
      }
      vn.apply(in);
    }
  }
  if (step <= 0) return assumed_trip;
  if (bound_v <= init_v) return 1;  // header still evaluates once
  const std::uint64_t span = static_cast<std::uint64_t>(bound_v - init_v);
  const std::uint64_t trip =
      (span + static_cast<std::uint64_t>(step) - 1) /
      static_cast<std::uint64_t>(step);
  return std::min(std::max<std::uint64_t>(trip, 1), kWeightCap);
}

/// Per-block execution weight: the product of the trip estimates of every
/// enclosing loop (find_natural_loops lists a nest's blocks in each level,
/// so inner blocks pick up every level's factor).
std::vector<std::uint64_t> block_weights(const Function& fn, const Cfg& cfg,
                                         const ConstantFacts& consts,
                                         std::uint64_t assumed_trip) {
  std::vector<std::uint64_t> w(fn.blocks.size(), 1);
  const DomTree dom(cfg);
  for (const NaturalLoop& loop : find_natural_loops(cfg, dom)) {
    const std::uint64_t trip = estimate_trip(fn, loop, consts, assumed_trip);
    for (const std::uint32_t b : loop.blocks) {
      w[b] = sat_mul(w[b], trip);
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Footprint collection
// ---------------------------------------------------------------------------

RoleFootprint collect_footprint(const Module& module, std::uint32_t fidx,
                                const RoleSpec& spec,
                                const SummaryTable& summaries,
                                const PredictOptions& options) {
  RoleFootprint fp;
  fp.role = spec.role;
  fp.region = spec.region;
  fp.function = spec.function;

  const Function& fn = module.functions[fidx];
  const Cfg cfg(fn);
  const ConstantFacts consts = analyze_constants(fn, cfg);
  const std::vector<std::uint64_t> weights =
      block_weights(fn, cfg, consts, options.assumed_trip);
  const std::vector<bool> stable = stable_args(fn);
  const bool arg_ok = spec.arg < fn.num_args && stable[spec.arg];
  std::uint32_t segment = 0;

  for (const std::uint32_t b : cfg.reverse_postorder()) {
    ValueNumbering vn(fn);
    if (b < consts.block_entry.size() && !consts.block_entry[b].empty()) {
      vn.seed_constants(consts.block_entry[b]);
    }
    // Block-local held handoff claims, mirroring apply_sync_scoped exactly:
    // the claim's {owner, W} automaton state the pruner relies on is the
    // same happens-order evidence the predictor uses to exclude conflicts.
    struct Held {
      Value::Base base;
      std::uint32_t id;
      std::int64_t lo;
      std::int64_t hi;
    };
    std::vector<Held> held;
    const std::uint64_t bw = weights[b];

    // One resolved span: `len` bytes from `av`, single accesses of `width`.
    auto add_span = [&](const Value& av, std::int64_t len, std::uint32_t width,
                        bool is_write, std::uint64_t weight) {
      if (len <= 0) return;
      if (!arg_ok || av.base != Value::Base::kEntryReg || av.id != spec.arg) {
        ++fp.opaque_sites;
        return;
      }
      if (spec.confined_len > 0 && av.offset >= 0 &&
          static_cast<std::uint64_t>(av.offset) + len <= spec.confined_len) {
        ++fp.confined_skipped;
        return;
      }
      FootprintInterval iv;
      iv.lo = spec.region_offset + av.offset;
      iv.hi = iv.lo + len;
      iv.width = width;
      iv.is_write = is_write;
      for (const Held& h : held) {
        if (av.base == h.base && av.id == h.id && av.offset >= h.lo &&
            av.offset + len <= h.hi) {
          iv.handed_off = true;
          iv.claim_lo = spec.region_offset + h.lo;
          iv.claim_hi = spec.region_offset + h.hi;
          break;
        }
      }
      iv.segment = segment;
      iv.weight = weight == 0 ? 1 : weight;
      fp.resolved_weight = sat_add(fp.resolved_weight, iv.weight);
      fp.intervals.push_back(iv);
    };

    for (const Instr& in : fn.blocks[b].instrs) {
      switch (in.op) {
        case Opcode::kLoad:
          add_span(vn.address_of(in), in.size, in.size, /*is_write=*/false,
                   bw);
          break;
        case Opcode::kStore:
          add_span(vn.address_of(in), in.size, in.size, /*is_write=*/true, bw);
          break;
        case Opcode::kMemSet: {
          const Value len = vn.value_of(in.b);
          if (len.is_const() && len.offset > 0) {
            add_span(vn.value_of(in.a), len.offset, 8, /*is_write=*/true, bw);
          } else {
            ++fp.opaque_sites;
          }
          break;
        }
        case Opcode::kMemCopy: {
          const Value len = vn.value_of(in.dst);
          if (len.is_const() && len.offset > 0) {
            add_span(vn.value_of(in.a), len.offset, 8, /*is_write=*/true, bw);
            add_span(vn.value_of(in.b), len.offset, 8, /*is_write=*/false, bw);
          } else {
            fp.opaque_sites += 2;
          }
          break;
        }
        case Opcode::kCall: {
          const auto callee = static_cast<std::size_t>(in.imm);
          const AccessSummary* s = callee < summaries.per_function.size()
                                       ? &summaries.per_function[callee]
                                       : nullptr;
          // A syncing callee may publish a held range to another thread
          // mid-call: close held claims BEFORE rebasing its entries so they
          // register as unordered.
          if (s == nullptr || !s->exact || s->syncs) {
            held.clear();
            if (s != nullptr && s->syncs) ++segment;
          }
          if (s != nullptr && s->exact) {
            for (const AccessSummary::Entry& e : s->entries) {
              if (e.arg >= in.b) continue;  // malformed summary entry
              Value av = vn.value_of(in.a + e.arg);
              av.offset += e.offset;
              add_span(av, e.width, e.width, e.is_write,
                       sat_mul(bw, e.count));
            }
          } else {
            ++fp.opaque_sites;
          }
          break;
        }
        case Opcode::kAcquire:
        case Opcode::kRelease:
          held.clear();
          ++segment;
          break;
        case Opcode::kHandoff: {
          held.clear();
          ++segment;
          const Value base = vn.address_of(in);
          const Value len = vn.value_of(in.b);
          if (len.is_const() && len.offset > 0) {
            held.push_back(
                {base.base, base.id, base.offset, base.offset + len.offset});
          }
          break;
        }
        case Opcode::kReport:
          // Detector feed only — the real traffic is the loads/stores
          // themselves, which this walk already counts. Counting reports
          // too would double every batched loop.
          break;
        default:
          break;
      }
      vn.apply(in);
    }
  }
  fp.segments = segment + 1;
  return fp;
}

// ---------------------------------------------------------------------------
// Conflict overlay
// ---------------------------------------------------------------------------

/// One role's accumulated traffic on one (region, line) cell.
struct Contrib {
  std::vector<bool> touched;
  std::vector<bool> written;
  std::uint32_t lo = 0xffffffffu;
  std::uint32_t hi = 0;
  std::uint64_t w_open = 0;  ///< write weight outside any handoff claim
  std::uint64_t w_hand = 0;  ///< write weight under a handoff claim
  std::uint64_t r_open = 0;
  std::uint64_t r_hand = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> claims;
};

using LineKey = std::pair<std::uint32_t, std::int64_t>;  // (region, line)
using LineGrid = std::map<LineKey, std::map<std::uint32_t, Contrib>>;

LineGrid build_grid(const std::vector<RoleFootprint>& footprints,
                    std::size_t line_size) {
  LineGrid grid;
  const auto ls = static_cast<std::int64_t>(line_size);
  for (const RoleFootprint& fp : footprints) {
    for (const FootprintInterval& iv : fp.intervals) {
      std::int64_t off = iv.lo;
      while (off < iv.hi) {
        const std::int64_t line = floor_div(off, ls);
        const std::int64_t line_start = line * ls;
        const std::int64_t end = std::min(iv.hi, line_start + ls);
        Contrib& c = grid[{fp.region, line}][fp.role];
        if (c.touched.empty()) {
          c.touched.resize(line_size, false);
          c.written.resize(line_size, false);
        }
        for (std::int64_t p = off; p < end; ++p) {
          const auto i = static_cast<std::size_t>(p - line_start);
          c.touched[i] = true;
          if (iv.is_write) c.written[i] = true;
        }
        c.lo = std::min(c.lo, static_cast<std::uint32_t>(off - line_start));
        c.hi = std::max(c.hi, static_cast<std::uint32_t>(end - line_start));
        if (iv.is_write) {
          (iv.handed_off ? c.w_hand : c.w_open) =
              sat_add(iv.handed_off ? c.w_hand : c.w_open, iv.weight);
        } else {
          (iv.handed_off ? c.r_hand : c.r_open) =
              sat_add(iv.handed_off ? c.r_hand : c.r_open, iv.weight);
        }
        if (iv.handed_off) c.claims.emplace_back(iv.claim_lo, iv.claim_hi);
        off = end;
      }
    }
  }
  return grid;
}

bool claims_overlap(const Contrib& a, const Contrib& b) {
  for (const auto& [alo, ahi] : a.claims) {
    for (const auto& [blo, bhi] : b.claims) {
      if (alo < bhi && blo < ahi) return true;
    }
  }
  return false;
}

/// Conflicting weight between one side's writes (split open/handed) and the
/// other side's traffic. Handed×handed drops out when the two roles' claim
/// ranges overlap: the shared claim range is the happens-order edge — both
/// sides only ever reach the bytes through the same ownership chain.
std::uint64_t cross(std::uint64_t x_open, std::uint64_t x_hand,
                    std::uint64_t y_open, std::uint64_t y_hand,
                    bool hand_hand_ordered) {
  std::uint64_t t = sat_mul(x_open, y_open);
  t = sat_add(t, sat_mul(x_open, y_hand));
  t = sat_add(t, sat_mul(x_hand, y_open));
  if (!hand_hand_ordered) t = sat_add(t, sat_mul(x_hand, y_hand));
  return t;
}

std::vector<PredictedLine> score_grid(const LineGrid& grid,
                                      std::size_t line_size) {
  std::vector<PredictedLine> out;
  for (const auto& [key, roles] : grid) {
    if (roles.size() < 2) continue;
    PredictedLine line;
    line.region = key.first;
    line.line_size = static_cast<std::uint32_t>(line_size);
    line.line_index = key.second;
    for (auto ia = roles.begin(); ia != roles.end(); ++ia) {
      for (auto ib = std::next(ia); ib != roles.end(); ++ib) {
        const Contrib& a = ia->second;
        const Contrib& b = ib->second;
        const bool ordered = claims_overlap(a, b);
        const std::uint64_t ww =
            cross(a.w_open, a.w_hand, b.w_open, b.w_hand, ordered);
        const std::uint64_t wr =
            sat_add(cross(a.w_open, a.w_hand, b.r_open, b.r_hand, ordered),
                    cross(b.w_open, b.w_hand, a.r_open, a.r_hand, ordered));
        if (ww + wr == 0) continue;
        line.ww_weight = sat_add(line.ww_weight, ww);
        line.wr_weight = sat_add(line.wr_weight, wr);
        // Byte-level classification of this conflicting pair.
        bool shared_byte = false;
        bool disjoint_write = false;
        for (std::size_t i = 0; i < line_size; ++i) {
          if ((a.written[i] && b.touched[i]) || (b.written[i] && a.touched[i])) {
            shared_byte = true;
          }
          if ((a.written[i] && !b.touched[i]) ||
              (b.written[i] && !a.touched[i])) {
            disjoint_write = true;
          }
        }
        line.true_sharing |= shared_byte;
        line.false_sharing |= disjoint_write;
      }
    }
    if (line.ww_weight + line.wr_weight == 0) continue;
    line.score = 2.0 * static_cast<double>(line.ww_weight) +
                 static_cast<double>(line.wr_weight);
    for (const auto& [role, c] : roles) {
      RoleSpan span;
      span.role = role;
      span.lo = c.lo == 0xffffffffu ? 0 : c.lo;
      span.hi = c.hi;
      span.write_weight = sat_add(c.w_open, c.w_hand);
      span.read_weight = sat_add(c.r_open, c.r_hand);
      span.handed_off_only = c.w_open + c.r_open == 0;
      line.spans.push_back(span);
    }
    out.push_back(std::move(line));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Region structure: stride + extent
// ---------------------------------------------------------------------------

void detect_region_structure(const std::vector<RoleFootprint>& footprints,
                             StaticFsReport* report) {
  std::uint32_t num_regions = 0;
  for (const RoleFootprint& fp : footprints) {
    num_regions = std::max(num_regions, fp.region + 1);
  }
  report->region_slot_stride.assign(num_regions, 0);
  report->region_extent.assign(num_regions, 0);

  for (std::uint32_t g = 0; g < num_regions; ++g) {
    // Per-role written span inside region g.
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    std::int64_t extent = 0;
    for (const RoleFootprint& fp : footprints) {
      if (fp.region != g) continue;
      std::int64_t wlo = 0, whi = 0;
      bool has_write = false;
      for (const FootprintInterval& iv : fp.intervals) {
        extent = std::max(extent, iv.hi);
        if (!iv.is_write) continue;
        if (!has_write) {
          wlo = iv.lo;
          whi = iv.hi;
          has_write = true;
        } else {
          wlo = std::min(wlo, iv.lo);
          whi = std::max(whi, iv.hi);
        }
      }
      if (has_write) spans.emplace_back(wlo, whi);
    }
    report->region_extent[g] =
        extent > 0 ? static_cast<std::uint64_t>(extent) : 0;
    if (spans.size() < 2) continue;
    std::sort(spans.begin(), spans.end());
    const std::int64_t stride = spans[1].first - spans[0].first;
    if (stride <= 0) continue;
    bool uniform = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].second - spans[i].first > stride ||
          (i + 1 < spans.size() &&
           spans[i + 1].first - spans[i].first != stride)) {
        uniform = false;
        break;
      }
    }
    if (uniform) {
      report->region_slot_stride[g] = static_cast<std::uint64_t>(stride);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

StaticFsReport predict_static_fs(const Module& module,
                                 const std::vector<RoleSpec>& roles,
                                 const PredictOptions& options) {
  StaticFsReport report;
  if (options.line_size == 0) return report;

  // Summarize a copy with every real access marked instrumented (and
  // detector-only kReports unmarked): summaries count instrumentation
  // deliveries, and the predictor wants the program's actual traffic
  // whether or not the input module ran the pass.
  Module marked = module;
  for (Function& fn : marked.functions) {
    for (BasicBlock& bb : fn.blocks) {
      for (Instr& in : bb.instrs) {
        if (is_memory_access(in.op) || is_memory_intrinsic(in.op)) {
          in.instrumented = true;
          in.extra_reads = 0;
          in.extra_writes = 0;
        } else if (is_report(in.op)) {
          in.instrumented = false;
        }
      }
    }
  }
  const CallGraph cg(marked);
  const SummaryTable summaries = summarize_module(marked, cg);

  for (const RoleSpec& spec : roles) {
    const Function* fn = module.find(spec.function);
    if (fn == nullptr) {
      RoleFootprint empty;
      empty.role = spec.role;
      empty.region = spec.region;
      empty.function = spec.function;
      report.footprints.push_back(std::move(empty));
      continue;
    }
    const auto fidx = static_cast<std::uint32_t>(fn - module.functions.data());
    report.footprints.push_back(
        collect_footprint(module, fidx, spec, summaries, options));
  }
  for (const RoleFootprint& fp : report.footprints) {
    report.opaque_sites += fp.opaque_sites;
  }
  detect_region_structure(report.footprints, &report);

  // Base geometry.
  const LineGrid base_grid = build_grid(report.footprints, options.line_size);
  std::vector<PredictedLine> lines = score_grid(base_grid, options.line_size);

  // Extra geometries: keep only lines with no conflicting base-size
  // sub-line — conflicts that exist ONLY on the larger-line hardware.
  std::map<LineKey, bool> base_conflicts;
  for (const PredictedLine& l : lines) {
    base_conflicts[{l.region, l.line_index}] = true;
  }
  for (const std::size_t ls : options.extra_line_sizes) {
    if (ls <= options.line_size || ls % options.line_size != 0) continue;
    const LineGrid grid = build_grid(report.footprints, ls);
    const auto factor =
        static_cast<std::int64_t>(ls / options.line_size);
    for (PredictedLine& l : score_grid(grid, ls)) {
      bool any_base = false;
      for (std::int64_t j = 0; j < factor; ++j) {
        if (base_conflicts.count({l.region, l.line_index * factor + j}) > 0) {
          any_base = true;
          break;
        }
      }
      if (any_base) continue;
      l.latent = true;
      lines.push_back(std::move(l));
    }
  }

  std::sort(lines.begin(), lines.end(),
            [](const PredictedLine& a, const PredictedLine& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.region != b.region) return a.region < b.region;
              if (a.line_size != b.line_size) return a.line_size < b.line_size;
              return a.line_index < b.line_index;
            });
  if (lines.size() > options.max_lines) lines.resize(options.max_lines);
  report.lines = std::move(lines);
  return report;
}

std::vector<RoleSpec> default_roles(const Module& module) {
  const CallGraph cg(module);
  std::vector<bool> called(module.functions.size(), false);
  for (std::uint32_t f = 0; f < module.functions.size(); ++f) {
    for (const std::uint32_t c : cg.callees(f)) {
      called[c] = true;
    }
  }
  std::vector<RoleSpec> roles;
  for (std::uint32_t f = 0; f < module.functions.size(); ++f) {
    const std::string& name = module.functions[f].name;
    if (called[f]) continue;
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, "$bare") == 0) {
      continue;
    }
    RoleSpec spec;
    spec.function = name;
    spec.role = static_cast<std::uint32_t>(roles.size());
    roles.push_back(std::move(spec));
  }
  return roles;
}

std::string format_static_report(const StaticFsReport& report) {
  std::string out;
  std::uint64_t conflicts = 0;
  for (const PredictedLine& l : report.lines) {
    if (!l.latent) ++conflicts;
  }
  append_fmt(out,
             "static prediction: %zu role(s), %zu region(s), %llu conflict "
             "line(s), %llu latent\n",
             report.footprints.size(), report.region_extent.size(),
             static_cast<unsigned long long>(conflicts),
             static_cast<unsigned long long>(report.lines.size() - conflicts));
  for (const RoleFootprint& fp : report.footprints) {
    append_fmt(out,
               "  role %u -> %s (region %u): %zu interval(s), weight %llu, "
               "opaque %llu, confined %llu, segments %llu\n",
               fp.role, fp.function.c_str(), fp.region, fp.intervals.size(),
               static_cast<unsigned long long>(fp.resolved_weight),
               static_cast<unsigned long long>(fp.opaque_sites),
               static_cast<unsigned long long>(fp.confined_skipped),
               static_cast<unsigned long long>(fp.segments));
  }
  for (std::size_t g = 0; g < report.region_extent.size(); ++g) {
    append_fmt(out, "  region %zu: extent %llu B, slot stride %llu B\n", g,
               static_cast<unsigned long long>(report.region_extent[g]),
               static_cast<unsigned long long>(report.region_slot_stride[g]));
  }
  if (report.lines.empty()) {
    out += "  no conflicts predicted\n";
    return out;
  }
  for (const PredictedLine& l : report.lines) {
    const char* kind = l.false_sharing && l.true_sharing ? "mixed sharing"
                       : l.false_sharing                 ? "false sharing"
                       : l.true_sharing                  ? "true sharing"
                                                         : "contention";
    append_fmt(out,
               "  region %u line %lld @%uB: score %.0f [%s%s] ww %llu wr "
               "%llu\n",
               l.region, static_cast<long long>(l.line_index), l.line_size,
               l.score, kind, l.latent ? ", latent" : "",
               static_cast<unsigned long long>(l.ww_weight),
               static_cast<unsigned long long>(l.wr_weight));
    for (const RoleSpan& s : l.spans) {
      append_fmt(out, "    role %u bytes [%u,%u) writes %llu reads %llu%s\n",
                 s.role, s.lo, s.hi,
                 static_cast<unsigned long long>(s.write_weight),
                 static_cast<unsigned long long>(s.read_weight),
                 s.handed_off_only ? " (handed off)" : "");
    }
  }
  return out;
}

}  // namespace pred::ir
