#include "instrument/analysis/summaries.hpp"

#include <map>
#include <tuple>

#include "common/check.hpp"

namespace pred::ir {

namespace {

/// Abstract value of the summarizing interpreter. Mirrors the interpreter's
/// int64 register semantics exactly wherever it claims a constant.
struct SymVal {
  enum class Kind : std::uint8_t { kConst, kArgRel, kOpaque };
  Kind kind = Kind::kOpaque;
  std::uint32_t arg = 0;  ///< argument index (kArgRel)
  std::int64_t c = 0;     ///< constant, or offset from the argument value

  static SymVal constant(std::int64_t v) {
    return {Kind::kConst, 0, v};
  }
  static SymVal arg_rel(std::uint32_t a, std::int64_t off) {
    return {Kind::kArgRel, a, off};
  }
  static SymVal opaque() { return {}; }
  bool is_const() const { return kind == Kind::kConst; }
  bool is_arg() const { return kind == Kind::kArgRel; }
};

class Summarizer {
 public:
  /// Step budget: a summarizable callee follows one finite constant-decided
  /// path; anything longer than this is not worth describing exactly.
  static constexpr std::uint64_t kMaxSteps = 200'000;

  Summarizer(const Module& module, const CallGraph& cg,
             const SummaryTable& table)
      : module_(module), cg_(cg), table_(table) {}

  AccessSummary run(std::uint32_t f) {
    if (cg_.in_cycle(f)) return {};  // recursion: no bounded exact behavior
    if (!execute(module_.functions[f])) return {};
    AccessSummary s;
    s.exact = true;
    s.syncs = syncs_;
    s.entries.reserve(acc_.size());
    for (const auto& [key, count] : acc_) {
      const auto& [arg, offset, width, is_write] = key;
      s.entries.push_back({arg, offset, width, is_write, count});
    }
    return s;
  }

 private:
  using Key = std::tuple<std::uint32_t, std::int64_t, std::uint32_t, bool>;

  void deliver(std::uint32_t arg, std::int64_t offset, std::uint32_t width,
               bool is_write, std::uint64_t count) {
    if (count > 0) acc_[Key{arg, offset, width, is_write}] += count;
  }

  /// Follows the function's statically decided path, collecting deliveries.
  /// Returns false as soon as anything is not exactly describable.
  bool execute(const Function& fn) {
    std::vector<SymVal> regs(fn.num_regs, SymVal::constant(0));
    for (std::uint32_t a = 0; a < fn.num_args; ++a) {
      regs[a] = SymVal::arg_rel(a, 0);
    }

    std::uint32_t block = 0;
    std::size_t pc = 0;
    while (true) {
      if (++steps_ > kMaxSteps) return false;
      if (block >= fn.blocks.size()) return false;
      const auto& instrs = fn.blocks[block].instrs;
      if (pc >= instrs.size()) return false;
      const Instr& in = instrs[pc];

      switch (in.op) {
        case Opcode::kConst:
          regs[in.dst] = SymVal::constant(in.imm);
          break;
        case Opcode::kMove:
          regs[in.dst] = regs[in.a];
          break;
        case Opcode::kAdd:
          regs[in.dst] = add(regs[in.a], regs[in.b]);
          break;
        case Opcode::kSub:
          regs[in.dst] = sub(regs[in.a], regs[in.b]);
          break;
        case Opcode::kMul:
          regs[in.dst] = fold_binop(regs[in.a], regs[in.b],
                                    [](std::int64_t a, std::int64_t b) {
                                      return a * b;
                                    });
          break;
        case Opcode::kDiv:
        case Opcode::kRem: {
          const SymVal& d = regs[in.b];
          if (d.is_const() && d.c == 0) return false;  // would trap at runtime
          regs[in.dst] =
              in.op == Opcode::kDiv
                  ? fold_binop(regs[in.a], d,
                               [](std::int64_t a, std::int64_t b) {
                                 return a / b;
                               })
                  : fold_binop(regs[in.a], d,
                               [](std::int64_t a, std::int64_t b) {
                                 return a % b;
                               });
          break;
        }
        case Opcode::kCmpLt:
          regs[in.dst] = fold_binop(regs[in.a], regs[in.b],
                                    [](std::int64_t a, std::int64_t b) {
                                      return a < b ? 1 : 0;
                                    });
          break;
        case Opcode::kCmpEq:
          regs[in.dst] = fold_binop(regs[in.a], regs[in.b],
                                    [](std::int64_t a, std::int64_t b) {
                                      return a == b ? 1 : 0;
                                    });
          break;
        case Opcode::kLoad:
          if (in.instrumented &&
              !deliver_access(regs[in.a], in, /*is_store=*/false)) {
            return false;
          }
          regs[in.dst] = SymVal::opaque();  // memory contents are not modeled
          break;
        case Opcode::kStore:
          if (in.instrumented &&
              !deliver_access(regs[in.a], in, /*is_store=*/true)) {
            return false;
          }
          break;
        case Opcode::kCall: {
          const auto callee = static_cast<std::size_t>(in.imm);
          if (callee >= table_.per_function.size()) return false;
          const AccessSummary& inner = table_.per_function[callee];
          if (!inner.exact) return false;
          syncs_ |= inner.syncs;
          for (const AccessSummary::Entry& e : inner.entries) {
            const SymVal base = regs[in.a + e.arg];
            if (!base.is_arg()) return false;
            deliver(base.arg, base.c + e.offset, e.width, e.is_write,
                    e.count);
          }
          regs[in.dst] = SymVal::opaque();
          break;
        }
        case Opcode::kMemSet:
        case Opcode::kMemCopy:
          // Instrumented intrinsics deliver a dynamic, length-dependent
          // range; uninstrumented ones deliver nothing and define nothing.
          if (in.instrumented) return false;
          break;
        case Opcode::kReport: {
          if (in.instrumented) {
            const SymVal cnt = regs[in.b];
            if (!cnt.is_const()) return false;
            if (cnt.c > 0) {
              const SymVal base = regs[in.a];
              if (!base.is_arg()) return false;
              deliver(base.arg, base.c + in.imm, in.size, in.target != 0,
                      static_cast<std::uint64_t>(cnt.c));
            }
          }
          break;
        }
        case Opcode::kAcquire:
        case Opcode::kRelease:
        case Opcode::kHandoff:
          // Sync intrinsics deliver no instrumentation, so exactness is
          // preserved — but record their presence: batching a syncing
          // callee would collapse its brackets and handoff claims.
          syncs_ = true;
          break;
        case Opcode::kBr:
          block = in.target;
          pc = 0;
          continue;
        case Opcode::kCondBr: {
          const SymVal cond = regs[in.a];
          if (!cond.is_const()) return false;  // data-dependent control flow
          block = cond.c != 0 ? in.target : in.target2;
          pc = 0;
          continue;
        }
        case Opcode::kRet:
          return true;
      }
      ++pc;
    }
  }

  bool deliver_access(const SymVal& base, const Instr& in, bool is_store) {
    if (!base.is_arg()) return false;  // data-dependent delivered address
    const std::int64_t addr_off = base.c + in.imm;
    deliver(base.arg, addr_off, in.size, is_store, 1);
    // Merge-compensation extras fire at the same address and width.
    deliver(base.arg, addr_off, in.size, /*is_write=*/false, in.extra_reads);
    deliver(base.arg, addr_off, in.size, /*is_write=*/true, in.extra_writes);
    return true;
  }

  static SymVal add(const SymVal& a, const SymVal& b) {
    if (a.is_const() && b.is_const()) return SymVal::constant(a.c + b.c);
    if (a.is_arg() && b.is_const()) return SymVal::arg_rel(a.arg, a.c + b.c);
    if (a.is_const() && b.is_arg()) return SymVal::arg_rel(b.arg, a.c + b.c);
    return SymVal::opaque();
  }

  static SymVal sub(const SymVal& a, const SymVal& b) {
    if (a.is_const() && b.is_const()) return SymVal::constant(a.c - b.c);
    if (a.is_arg() && b.is_const()) return SymVal::arg_rel(a.arg, a.c - b.c);
    if (a.is_arg() && b.is_arg() && a.arg == b.arg) {
      return SymVal::constant(a.c - b.c);
    }
    return SymVal::opaque();
  }

  template <typename Op>
  static SymVal fold_binop(const SymVal& a, const SymVal& b, Op op) {
    if (a.is_const() && b.is_const()) return SymVal::constant(op(a.c, b.c));
    return SymVal::opaque();
  }

  const Module& module_;
  const CallGraph& cg_;
  const SummaryTable& table_;
  std::map<Key, std::uint64_t> acc_;
  std::uint64_t steps_ = 0;
  bool syncs_ = false;  ///< saw a sync intrinsic (directly or via a callee)
};

}  // namespace

AccessSummary summarize_function(const Module& module, std::uint32_t f,
                                 const CallGraph& cg,
                                 const SummaryTable& table) {
  PRED_CHECK(f < module.functions.size());
  return Summarizer(module, cg, table).run(f);
}

SummaryTable summarize_module(const Module& module, const CallGraph& cg) {
  SummaryTable table;
  table.per_function.resize(module.functions.size());
  for (const std::uint32_t f : cg.bottom_up()) {
    table.per_function[f] = summarize_function(module, f, cg, table);
  }
  return table;
}

}  // namespace pred::ir
