#include "instrument/pass.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "instrument/analysis/callgraph.hpp"
#include "instrument/analysis/cfg.hpp"
#include "instrument/analysis/constants.hpp"
#include "instrument/analysis/dominators.hpp"
#include "instrument/analysis/loops.hpp"
#include "instrument/analysis/value_numbering.hpp"

namespace pred::ir {

namespace {

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

bool defines_register(const Instr& in) {
  switch (in.op) {
    case Opcode::kConst:
    case Opcode::kMove:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kRem:
    case Opcode::kCmpLt:
    case Opcode::kCmpEq:
    case Opcode::kLoad:
    case Opcode::kCall:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Stage 1: selective per-block dedup (Section 2.4.2)
// ---------------------------------------------------------------------------

/// Key identifying "the same address, same access type" within one block:
/// the address register, the constant offset, the access width, and whether
/// it is a load or a store.
struct AccessKey {
  Reg base;
  std::int64_t offset;
  std::uint32_t size;
  bool is_store;
  auto operator<=>(const AccessKey&) const = default;
};

void instrument_function(Function& fn, const PassOptions& options,
                         PassStats& stats) {
  for (BasicBlock& bb : fn.blocks) {
    std::set<AccessKey> seen;  // reset at block boundaries
    for (Instr& instr : bb.instrs) {
      if (is_memory_intrinsic(instr.op)) {
        // memset/memcpy touch a dynamic range: always instrumented (the
        // per-address dedup cannot apply), subject to writes-only mode for
        // the pure-read half handled at runtime. Counted apart from the
        // per-address candidates so the dedup/merge arithmetic reconciles.
        ++stats.intrinsic_accesses;
        instr.instrumented = true;
        continue;
      }
      if (is_memory_access(instr.op)) {
        ++stats.candidate_accesses;
        const bool is_store = instr.op == Opcode::kStore;
        if (!is_store && options.mode == InstrumentMode::kWritesOnly) {
          ++stats.skipped_reads;
        } else {
          const AccessKey key{instr.a, instr.imm, instr.size, is_store};
          if (options.selective && !seen.insert(key).second) {
            ++stats.skipped_duplicates;
          } else {
            instr.instrumented = true;
            ++stats.instrumented_accesses;
          }
        }
      }
      // A redefinition of a register invalidates remembered address
      // expressions built on it: "the same address" must mean the same
      // value, not merely the same register name. (kReport reads its
      // operands and defines nothing.)
      if (defines_register(instr)) {
        for (auto it = seen.begin(); it != seen.end();) {
          it = it->base == instr.dst ? seen.erase(it) : std::next(it);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stage 2: loop batching
// ---------------------------------------------------------------------------

/// The canonical counted-loop shape batching recognizes:
///
///   preheader:  ... ; br header            (unique, outside the loop)
///   header:     c = ind < bound ; br c ? body : exit
///   body:       ... accesses, net effect ind += step ... ; br header
///
/// The body is the loop's only latch and ends in an *unconditional* branch
/// to the header (a conditional latch could exit before `ind` reaches
/// `bound`), `bound` is untouched inside the loop,
/// and the net effect of one body execution on `ind` — established by value
/// numbering, so any instruction mix qualifies — is exactly +step for a
/// positive constant step. Under those conditions the body executes exactly
/// max(0, ceil((bound - ind0) / step)) times per preheader visit, which is
/// the count the planted kReport computes at run time.
struct BatchableLoop {
  std::uint32_t header;
  std::uint32_t body;
  std::uint32_t preheader;
  Reg ind;
  Reg bound;
  std::int64_t step;
};

std::optional<BatchableLoop> match_batchable(const Function& fn,
                                             const NaturalLoop& loop,
                                             const ConstantFacts& consts) {
  if (loop.blocks.size() != 2 || loop.latches.size() != 1 ||
      loop.preheader == NaturalLoop::kNone) {
    return std::nullopt;
  }
  const std::uint32_t body = loop.latches[0];
  if (body == loop.header || !loop.contains(body)) return std::nullopt;

  // The header's comparison must be the *only* way out: the body has to
  // fall back into the header unconditionally. A conditional latch
  // (condbr c ? header : out) can leave the loop before `ind` reaches
  // `bound`, so the preheader trip count would over-deliver.
  const Instr& latch_term = fn.blocks[body].instrs.back();
  if (latch_term.op != Opcode::kBr || latch_term.target != loop.header) {
    return std::nullopt;
  }

  const auto& h = fn.blocks[loop.header].instrs;
  if (h.size() != 2 || h[0].op != Opcode::kCmpLt ||
      h[1].op != Opcode::kCondBr || h[1].a != h[0].dst ||
      h[1].target != body || loop.contains(h[1].target2)) {
    return std::nullopt;
  }
  const Reg ind = h[0].a;
  const Reg bound = h[0].b;
  if (ind == bound || h[0].dst == ind || h[0].dst == bound) {
    return std::nullopt;
  }

  // `bound` must be loop-invariant the strong way: never assigned inside.
  for (const std::uint32_t b : loop.blocks) {
    for (const Instr& in : fn.blocks[b].instrs) {
      if (defines_register(in) && in.dst == bound) return std::nullopt;
    }
  }

  // Net effect of one body execution on the induction register.
  ValueNumbering vn(fn);
  vn.seed_constants(consts.block_entry[body]);
  for (const Instr& in : fn.blocks[body].instrs) vn.apply(in);
  const ValueNumbering::Value v = vn.value_of(ind);
  if (v.base != ValueNumbering::Value::Base::kEntryReg || v.id != ind ||
      v.offset < 1) {
    return std::nullopt;
  }
  return BatchableLoop{loop.header, body, loop.preheader, ind, bound,
                       v.offset};
}

/// Shared state of the interprocedural stage, threaded into batch_loops so
/// a call inside a matched loop can be expanded through its callee summary.
struct InterprocCtx {
  Module& module;
  SummaryTable& summaries;          ///< grows as "$bare" clones are added
  std::vector<std::int32_t>& clone_of;  ///< original index → clone index
  std::size_t original_count;
};

/// Returns (building on demand) the uninstrumented "$bare" clone of `f`:
/// the same code with every instrumented flag and compensation extra
/// cleared, and every inner call retargeted to the callee's own clone, so
/// running it delivers nothing to the runtime, transitively. Clones are
/// appended after the original functions; the module's vector was reserved
/// for them up front, so references to earlier functions stay valid.
/// (Cycles cannot occur: a clone is only requested for a function with an
/// exact summary, and summarization refuses recursion.)
std::uint32_t ensure_bare_clone(InterprocCtx& ctx, std::uint32_t f,
                                PassStats& stats) {
  if (ctx.clone_of[f] >= 0) return static_cast<std::uint32_t>(ctx.clone_of[f]);
  Function copy = ctx.module.functions[f];
  copy.name += "$bare";
  for (BasicBlock& bb : copy.blocks) {
    for (Instr& in : bb.instrs) {
      in.instrumented = false;
      in.extra_reads = 0;
      in.extra_writes = 0;
    }
  }
  const auto idx = static_cast<std::uint32_t>(ctx.module.functions.size());
  PRED_CHECK(ctx.module.functions.capacity() > idx);  // reserved: no realloc
  ctx.clone_of[f] = static_cast<std::int32_t>(idx);
  ctx.module.functions.push_back(std::move(copy));
  // A clone delivers nothing, so its summary is exactly empty — recorded so
  // summarizing a caller that now calls the clone stays exact.
  ctx.summaries.per_function.resize(ctx.module.functions.size());
  ctx.summaries.per_function[idx].exact = true;
  ++stats.bare_clones;
  // Retarget inner calls by index: the recursive call below may append more
  // clones, so no references into the vector are held across it.
  for (std::size_t b = 0; b < ctx.module.functions[idx].blocks.size(); ++b) {
    const std::size_t n = ctx.module.functions[idx].blocks[b].instrs.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (ctx.module.functions[idx].blocks[b].instrs[i].op == Opcode::kCall) {
        const auto inner = static_cast<std::uint32_t>(
            ctx.module.functions[idx].blocks[b].instrs[i].imm);
        const std::uint32_t inner_clone =
            inner < ctx.original_count ? ensure_bare_clone(ctx, inner, stats)
                                       : inner;  // already a clone
        ctx.module.functions[idx].blocks[b].instrs[i].imm = inner_clone;
      }
    }
  }
  return idx;
}

void batch_loops(Function& fn, PassStats& stats, InterprocCtx* ctx) {
  const Cfg cfg(fn);
  const DomTree dom(cfg);
  const ConstantFacts consts = analyze_constants(fn, cfg);
  const std::vector<NaturalLoop> loops = find_natural_loops(cfg, dom);

  for (const NaturalLoop& loop : loops) {
    const std::optional<BatchableLoop> m = match_batchable(fn, loop, consts);
    if (!m) continue;

    // Registers assigned anywhere in the loop; an address built only from
    // registers outside this set has the same value in every iteration —
    // and, because the preheader dominates the body with no intervening
    // assignment, the *same* value at the preheader's end.
    std::vector<bool> defined(fn.num_regs, false);
    for (const std::uint32_t b : loop.blocks) {
      for (const Instr& in : fn.blocks[b].instrs) {
        if (defines_register(in)) defined[in.dst] = true;
      }
    }

    struct Hoist {
      Instr* access;
      ValueNumbering::Value addr;
    };
    /// A call whose summarized per-invocation access set can be delivered
    /// wholesale from the preheader: the callee summary is exact and every
    /// argument any entry is relative to is loop-invariant.
    struct CallHoist {
      Instr* call;
      std::uint32_t callee;
      std::vector<ValueNumbering::Value> bases;  ///< per summary entry
    };
    std::vector<Hoist> hoists;
    std::vector<CallHoist> call_hoists;
    ValueNumbering vn(fn);
    vn.seed_constants(consts.block_entry[m->body]);
    for (Instr& in : fn.blocks[m->body].instrs) {
      if (is_memory_access(in.op) && in.instrumented && in.extra_reads == 0 &&
          in.extra_writes == 0) {
        const ValueNumbering::Value v = vn.address_of(in);
        if (v.base == ValueNumbering::Value::Base::kEntryReg &&
            !defined[v.id]) {
          hoists.push_back({&in, v});
        }
      } else if (ctx != nullptr && in.op == Opcode::kCall) {
        const auto callee = static_cast<std::uint32_t>(in.imm);
        const AccessSummary& s = ctx->summaries.per_function[callee];
        // A syncing callee (s.syncs) is still batchable: the "$bare" clone
        // keeps its kAcquire/kRelease/kHandoff ops — sync structure is
        // program semantics, not instrumentation — so handoff claims
        // execute per iteration either way. Bulk delivery relocates
        // same-thread accesses across same-thread claims; a claim leaves
        // the line in the {owner, W} state, where the relocated accesses
        // by the owner are no-ops for the automaton, so the first-event
        // transition that decides an invalidation never moves. The syncs
        // bit matters to sync-scoped pruning (a held range must not survive
        // a syncing call), not to batching.
        if (s.exact && !s.entries.empty()) {
          CallHoist ch{&in, callee, {}};
          ch.bases.reserve(s.entries.size());
          bool invariant = true;
          for (const AccessSummary::Entry& e : s.entries) {
            const ValueNumbering::Value v = vn.value_of(in.a + e.arg);
            if (v.base != ValueNumbering::Value::Base::kEntryReg ||
                defined[v.id]) {
              invariant = false;
              break;
            }
            ch.bases.push_back(v);
          }
          if (invariant) call_hoists.push_back(std::move(ch));
        }
      }
      vn.apply(in);
    }
    if (hoists.empty() && call_hoists.empty()) continue;

    // Emit the trip count ahead of the preheader's terminator:
    //   cnt = (bound - ind + step - 1) / step
    // (signed; a non-positive result means "loop never entered" and the
    // interpreter delivers nothing for it).
    const Reg t_diff = fn.num_regs++;
    const Reg t_cm1 = fn.num_regs++;
    const Reg t_sum = fn.num_regs++;
    const Reg t_step = fn.num_regs++;
    const Reg t_cnt = fn.num_regs++;
    std::vector<Instr> planted;
    planted.push_back({.op = Opcode::kSub, .dst = t_diff, .a = m->bound,
                       .b = m->ind});
    planted.push_back({.op = Opcode::kConst, .dst = t_cm1,
                       .imm = m->step - 1});
    planted.push_back({.op = Opcode::kAdd, .dst = t_sum, .a = t_diff,
                       .b = t_cm1});
    planted.push_back({.op = Opcode::kConst, .dst = t_step, .imm = m->step});
    planted.push_back({.op = Opcode::kDiv, .dst = t_cnt, .a = t_sum,
                       .b = t_step});
    for (const Hoist& hst : hoists) {
      planted.push_back({.op = Opcode::kReport, .a = hst.addr.id,
                         .b = t_cnt, .imm = hst.addr.offset,
                         .size = hst.access->size,
                         .target = hst.access->op == Opcode::kStore ? 1u : 0u,
                         .instrumented = true});
      hst.access->instrumented = false;
      ++stats.loop_batched;
      --stats.instrumented_accesses;
      ++stats.reports_inserted;
    }
    for (CallHoist& ch : call_hoists) {
      // The call keeps running — return value and memory effects are real —
      // but against the silent clone; the preheader reports deliver what
      // the instrumented callee would have, times the trip count. A
      // non-positive trip count makes every planted count non-positive
      // (entry counts are >= 1), so a never-entered loop delivers nothing.
      const AccessSummary& s = ctx->summaries.per_function[ch.callee];
      for (std::size_t i = 0; i < s.entries.size(); ++i) {
        const AccessSummary::Entry& e = s.entries[i];
        Reg count_reg = t_cnt;
        if (e.count != 1) {
          const Reg t_ec = fn.num_regs++;
          const Reg t_n = fn.num_regs++;
          planted.push_back({.op = Opcode::kConst, .dst = t_ec,
                             .imm = static_cast<std::int64_t>(e.count)});
          planted.push_back({.op = Opcode::kMul, .dst = t_n, .a = t_cnt,
                             .b = t_ec});
          count_reg = t_n;
        }
        planted.push_back({.op = Opcode::kReport, .a = ch.bases[i].id,
                           .b = count_reg,
                           .imm = ch.bases[i].offset + e.offset,
                           .size = e.width,
                           .target = e.is_write ? 1u : 0u,
                           .instrumented = true});
        ++stats.reports_inserted;
      }
      ch.call->imm = ensure_bare_clone(*ctx, ch.callee, stats);
      ++stats.call_batched;
    }
    auto& pre = fn.blocks[m->preheader].instrs;
    pre.insert(pre.end() - 1, planted.begin(), planted.end());
  }
}

// ---------------------------------------------------------------------------
// Thread-escape skipping
// ---------------------------------------------------------------------------

/// Drops instrumentation from accesses proven confined to the invoking
/// thread's private heap span: the value-numbered address is (stable
/// argument k) + c with the whole [c, c + size) window inside the proven
/// headroom of (fn, k). Runs before batching/merging, so extras are still
/// zero and the later stages simply never see the dropped accesses.
void apply_escape(Function& fn, const std::vector<std::uint64_t>& confined,
                  const PassOptions& options, PassStats& stats) {
  bool any = false;
  for (const std::uint64_t len : confined) any = any || len > 0;
  if (!any) return;

  const std::vector<bool> stable = stable_args(fn);
  const Cfg cfg(fn);
  const ConstantFacts consts = analyze_constants(fn, cfg);
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    ValueNumbering vn(fn);
    vn.seed_constants(consts.block_entry[b]);
    for (Instr& in : fn.blocks[b].instrs) {
      if (is_memory_access(in.op) && in.instrumented) {
        const ValueNumbering::Value v = vn.address_of(in);
        if (v.base == ValueNumbering::Value::Base::kEntryReg &&
            v.id < fn.num_args && stable[v.id] && v.offset >= 0 &&
            confined[v.id] > 0 &&
            static_cast<std::uint64_t>(v.offset) + in.size <= confined[v.id]) {
          in.instrumented = false;
          ++stats.escape_skipped;
          --stats.instrumented_accesses;
          if (options.escape_log != nullptr) {
            options.escape_log->push_back({fn.name, v.id, v.offset, in.size,
                                           in.op == Opcode::kStore});
          }
        }
      }
      vn.apply(in);
    }
  }
}

// ---------------------------------------------------------------------------
// Sync-scoped pruning
// ---------------------------------------------------------------------------

/// Drops instrumentation from accesses that provably land inside a range the
/// executing thread claimed through a kHandoff earlier in the same block.
/// The runtime's handoff claim escalates every line the range overlaps and
/// pushes one synthetic same-thread write through each line's history
/// automaton, leaving it exactly in the {owner, W} state — the one state in
/// which any further access by that thread is a no-op for invalidation
/// detection. Dropping such an access therefore never loses an invalidation
/// (the claim stands in for the pruned first write); like escape skipping it
/// does drop the delivery itself, so sampled word counts shrink.
///
/// The proof obligation is temporal, so a held range dies at anything that
/// could republish ownership to another thread: a later kAcquire/kRelease
/// (a bracket another thread may enter), a call unless its callee summary
/// is exact and
/// sync-free, and the end of the block. Ranges are tracked as value-numbered
/// (base, [lo, hi)) intervals, so aliased registers and offsets split
/// between register and immediate cannot defeat the membership test, and a
/// redefined register simply stops resolving to the held base value.
/// `transfer` (optional) is the function's per-argument handoff-managed
/// headroom from EscapeFacts::transfer_len: the harness promised — verified
/// at bind time and propagated through call sites — that every invocation
/// receives the argument's pointee through a kHandoff ownership transfer to
/// the invoking thread. That transfer IS the claim the block-local rule
/// needs, already standing when the function is entered, so the ENTRY block
/// opens with a held range per stable transferable argument: cross-call
/// handoff evidence prunes accesses no local kHandoff could cover. The
/// ranges obey the same lifetime rules as local claims (they die at syncs,
/// unsummarized calls, and the entry block's end — later blocks may execute
/// after an in-function acquire or release, so the entry promise cannot
/// reach them).
void apply_sync_scoped(Function& fn, const SummaryTable* summaries,
                       const std::vector<std::uint64_t>* transfer,
                       PassStats& stats) {
  const Cfg cfg(fn);
  const ConstantFacts consts = analyze_constants(fn, cfg);
  const std::vector<bool> stable = stable_args(fn);

  struct Held {
    ValueNumbering::Value::Base base;
    std::uint32_t id;
    std::int64_t lo;
    std::int64_t hi;
  };

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    ValueNumbering vn(fn);
    vn.seed_constants(consts.block_entry[b]);
    std::vector<Held> held;
    if (b == Cfg::kEntry && transfer != nullptr) {
      for (std::uint32_t a = 0; a < fn.num_args && a < transfer->size();
           ++a) {
        if ((*transfer)[a] > 0 && stable[a]) {
          held.push_back({ValueNumbering::Value::Base::kEntryReg, a, 0,
                          static_cast<std::int64_t>((*transfer)[a])});
        }
      }
    }
    for (Instr& in : fn.blocks[b].instrs) {
      switch (in.op) {
        case Opcode::kHandoff: {
          // One claim is held at a time: the pass reasons about the
          // {owner, W} state the newest claim leaves on its own lines, so
          // ranges held from EARLIER claims close here, even where the new
          // claim does not re-cover them (conservative, never unsound).
          held.clear();
          // Only a compile-time-constant positive length gives a provable
          // claimed range; a dynamic length opens nothing.
          const ValueNumbering::Value base = vn.address_of(in);
          const ValueNumbering::Value len = vn.value_of(in.b);
          if (len.is_const() && len.offset > 0) {
            held.push_back(
                {base.base, base.id, base.offset, base.offset + len.offset});
          }
          break;
        }
        case Opcode::kAcquire:
        case Opcode::kRelease:
          held.clear();
          break;
        case Opcode::kCall: {
          const auto callee = static_cast<std::size_t>(in.imm);
          const bool benign = summaries != nullptr &&
                              callee < summaries->per_function.size() &&
                              summaries->per_function[callee].exact &&
                              !summaries->per_function[callee].syncs;
          if (!benign) held.clear();
          break;
        }
        default:
          if (is_memory_access(in.op) && in.instrumented &&
              in.extra_reads == 0 && in.extra_writes == 0 && !held.empty()) {
            const ValueNumbering::Value v = vn.address_of(in);
            for (const Held& h : held) {
              if (v.base == h.base && v.id == h.id && v.offset >= h.lo &&
                  v.offset + in.size <= h.hi) {
                in.instrumented = false;
                ++stats.sync_scoped_skipped;
                --stats.instrumented_accesses;
                break;
              }
            }
          }
          break;
      }
      vn.apply(in);
    }
  }
}

// ---------------------------------------------------------------------------
// Stage 3: dominance/chain merging
// ---------------------------------------------------------------------------

/// Folds repeated instrumentation of one value-numbered (address, width)
/// into the first instrumented access along a linear block chain — a
/// maximal path B0 → B1 → ... where every edge is single-successor into
/// single-predecessor, so all blocks provably execute the same number of
/// times. The later access keeps running; only its runtime call moves onto
/// the first access as a +1r/+1w compensation extra. Within one block this
/// also subsumes what per-block dedup missed: aliased registers and offsets
/// split between register and immediate, which value numbering unifies.
///
/// Equivalence caveat: extras are delivered reads-then-writes at the kept
/// access, so an original per-address sequence like R,W,R reaches the
/// detector as R,R,W. Counts and kinds are conserved exactly, but the
/// within-thread order of same-address, same-width accesses is not. This is
/// sound for the current runtime — the history automaton and word histogram
/// are insensitive to permuting one thread's consecutive same-address R/W
/// deliveries (the property test in test_analysis.cpp checks bit-identical
/// reports) — and must be revisited if the detector ever becomes
/// order-sensitive within a thread.
void merge_chains(Function& fn, PassStats& stats) {
  const Cfg cfg(fn);
  const ConstantFacts consts = analyze_constants(fn, cfg);

  auto has_linear_pred = [&](std::uint32_t b) {
    for (const std::uint32_t p : cfg.preds(b)) {
      if (cfg.linear_edge(p, b)) return true;
    }
    return false;
  };

  for (const std::uint32_t head : cfg.reverse_postorder()) {
    if (has_linear_pred(head)) continue;  // interior of some chain

    using Key = std::tuple<ValueNumbering::Value::Base, std::uint32_t,
                           std::int64_t, std::uint32_t>;
    std::map<Key, Instr*> first;  // canonical (addr, width) → kept access
    ValueNumbering vn(fn);
    vn.seed_constants(consts.block_entry[head]);

    for (std::uint32_t cur = head;;) {
      for (Instr& in : fn.blocks[cur].instrs) {
        if (is_memory_access(in.op) && in.instrumented) {
          const ValueNumbering::Value v = vn.address_of(in);
          const Key key{v.base, v.id, v.offset, in.size};
          auto [it, inserted] = first.try_emplace(key, &in);
          if (!inserted) {
            Instr& kept = *it->second;
            if (in.op == Opcode::kStore) {
              kept.extra_writes += 1 + in.extra_writes;
              kept.extra_reads += in.extra_reads;
            } else {
              kept.extra_reads += 1 + in.extra_reads;
              kept.extra_writes += in.extra_writes;
            }
            in.instrumented = false;
            in.extra_reads = 0;
            in.extra_writes = 0;
            ++stats.dominance_merged;
            --stats.instrumented_accesses;
          }
        }
        vn.apply(in);
      }
      const auto& succs = cfg.succs(cur);
      if (succs.size() == 1 && cfg.linear_edge(cur, succs[0])) {
        cur = succs[0];
      } else {
        break;
      }
    }
  }
}

}  // namespace

PassStats run_instrumentation_pass(Module& module, const PassOptions& options,
                                   SummaryTable* summaries_out) {
  PassStats stats;
  const std::size_t original_count = module.functions.size();
  const bool interproc =
      options.interprocedural || options.escape != nullptr;

  // Without the interprocedural layer, functions are processed in module
  // order, exactly as before. With it, callees come first so every summary
  // a caller consults is already final — and the vector is reserved for one
  // clone per original up front, so Function references held while clones
  // are appended stay valid.
  std::unique_ptr<CallGraph> cg;
  std::vector<std::uint32_t> order(original_count);
  std::iota(order.begin(), order.end(), 0u);
  if (interproc) {
    cg = std::make_unique<CallGraph>(module);
    order = cg->bottom_up();
    module.functions.reserve(2 * original_count);
  }

  EscapeFacts escape_facts;
  if (options.escape != nullptr) {
    escape_facts = analyze_escape(module, *cg, *options.escape);
  }

  SummaryTable summaries;
  std::vector<std::int32_t> clone_of(original_count, -1);
  InterprocCtx ctx{module, summaries, clone_of, original_count};
  if (interproc) summaries.per_function.resize(original_count);

  for (const std::uint32_t f : order) {
    Function& fn = module.functions[f];
    const bool allowed =
        (options.whitelist.empty() || contains(options.whitelist, fn.name)) &&
        !contains(options.blacklist, fn.name);
    if (allowed) {
      instrument_function(fn, options, stats);
      if (options.escape != nullptr) {
        apply_escape(fn, escape_facts.confined_len[f], options, stats);
      }
      // Sync-scoped pruning runs while extras are still zero, before
      // batching/merging claim accesses: each access is dropped by at most
      // one whole-function transformation. With the interprocedural layer
      // on, callee summaries are final here (bottom-up order) so held
      // ranges can survive exact sync-free calls.
      if (options.sync_scoped) {
        // Harness-verified transfer facts extend the held-range rule across
        // calls: a transferable argument arrives pre-claimed (see
        // apply_sync_scoped).
        const std::vector<std::uint64_t>* transfer =
            options.escape != nullptr && f < escape_facts.transfer_len.size()
                ? &escape_facts.transfer_len[f]
                : nullptr;
        apply_sync_scoped(fn, interproc ? &summaries : nullptr, transfer,
                          stats);
      }
      // Batching runs before merging so hoisted accesses are out of the way:
      // merging an access and then multiplying its extras by a trip count
      // would double-deliver. In this order each access is claimed by at
      // most one whole-function transformation.
      if (options.loop_batching) {
        batch_loops(fn, stats, interproc ? &ctx : nullptr);
      }
      if (options.dominance_elim) merge_chains(fn, stats);
    } else {
      ++stats.skipped_functions;
    }
    // Summarize even excluded functions: uninstrumented code deliverably
    // does nothing, which is itself an exact (often empty) summary callers
    // can batch through.
    if (interproc) {
      summaries.per_function[f] = summarize_function(module, f, *cg, summaries);
      if (summaries.per_function[f].exact) {
        ++stats.callee_summaries;
      } else {
        ++stats.summary_top;
      }
    }
  }
  if (summaries_out != nullptr) *summaries_out = std::move(summaries);
  return stats;
}

PassStats run_instrumentation_pass(Module& module,
                                   const PassOptions& options) {
  return run_instrumentation_pass(module, options, nullptr);
}

RepairRewriteStats apply_repair_rewrite(Module& module,
                                        const RepairLayout& layout) {
  RepairRewriteStats stats;
  PRED_CHECK(layout.slot_stride > 0);
  PRED_CHECK(layout.pad_to >= layout.slot_stride);
  const std::int64_t stride = static_cast<std::int64_t>(layout.slot_stride);
  const std::int64_t pad_to = static_cast<std::int64_t>(layout.pad_to);

  for (Function& fn : module.functions) {
    if (layout.base_arg >= fn.num_args) continue;
    // An unstable base argument could alias the region through a rewritten
    // register; value numbering would no longer prove region membership.
    if (!stable_args(fn)[layout.base_arg]) continue;

    const Cfg cfg(fn);
    const ConstantFacts consts = analyze_constants(fn, cfg);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      ValueNumbering vn(fn);
      vn.seed_constants(consts.block_entry[b]);
      for (Instr& in : fn.blocks[b].instrs) {
        if (is_memory_intrinsic(in.op)) {
          ++stats.opaque;  // dynamic-range accesses are never relocated
        } else if (is_memory_access(in.op) || in.op == Opcode::kReport) {
          const ValueNumbering::Value v = vn.address_of(in);
          if (v.base == ValueNumbering::Value::Base::kEntryReg &&
              v.id == layout.base_arg) {
            const std::int64_t rel = v.offset - layout.region_offset;
            if (rel >= 0 &&
                static_cast<std::uint64_t>(rel) < layout.extent) {
              const std::int64_t slot = rel / stride;
              const std::int64_t within = rel % stride;
              if (within + in.size <= stride) {
                // Remapping the immediate moves the access no matter how
                // the original offset was split between registers and imm.
                in.imm += slot * pad_to + within - rel;
                ++stats.retargeted;
              } else {
                ++stats.straddling;  // spans two slots: cannot relocate
              }
            }
          } else if (v.base != ValueNumbering::Value::Base::kEntryReg) {
            ++stats.opaque;
          }
        }
        vn.apply(in);
      }
    }
  }
  return stats;
}

}  // namespace pred::ir
