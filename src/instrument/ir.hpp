// Mini-IR: the compiler-side substrate standing in for LLVM IR (see
// DESIGN.md). A register machine with basic blocks, loads/stores against
// real process memory, arithmetic, and branches — just enough structure for
// the instrumentation pass of Section 2.2 / 2.4.2 to make the same decisions
// the paper's LLVM pass makes (instrument only memory accesses; once per
// address & access type per basic block; honor black/whitelists and
// writes-only mode).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cacheline.hpp"

namespace pred::ir {

using Reg = std::uint32_t;

enum class Opcode : std::uint8_t {
  kConst,    // dst = imm
  kMove,     // dst = a
  kAdd,      // dst = a + b
  kSub,      // dst = a - b
  kMul,      // dst = a * b
  kDiv,      // dst = a / b (b != 0 checked at execution)
  kRem,      // dst = a % b
  kCmpLt,    // dst = (a < b)
  kCmpEq,    // dst = (a == b)
  kLoad,     // dst = *(T*)(regs[a] + imm), T of `size` bytes, sign-extended
  kStore,    // *(T*)(regs[a] + imm) = regs[b]
  kCall,     // dst = call functions[imm](regs[a] .. regs[a + b - 1])
  kMemSet,   // memset(regs[a], imm & 0xff, regs[b]) — word-wise writes
  kMemCopy,  // memcpy(regs[a], regs[b], regs[dst]) — word-wise read+write
  kReport,   // deliver regs[b] accesses of kind `target` (0=read, 1=write)
             // at regs[a] + imm, width `size` — no memory is touched; the
             // loop-batching pass plants these at preheaders to stand in
             // for hoisted per-iteration instrumentation
  kBr,       // jump to block `target`
  kCondBr,   // regs[a] != 0 ? block target : block target2
  kRet,      // return regs[a]
  kAcquire,  // synchronization: lock acquire / barrier entry; touches no
             // memory and records nothing at run time
  kRelease,  // synchronization: lock release / barrier exit; touches no
             // memory and records nothing at run time
  kHandoff,  // transfer ownership of [regs[a] + imm, + regs[b]) to the
             // executing thread: delivers a synthetic ownership claim to
             // every line in the range, leaving each in the {owner, W}
             // history state (stands in for the first post-handoff write
             // when pruning removed it)
};

/// True for the opcodes the instrumentation pass cares about (the memory
/// intrinsics are always access-bearing and handled separately).
constexpr bool is_memory_access(Opcode op) {
  return op == Opcode::kLoad || op == Opcode::kStore;
}
constexpr bool is_memory_intrinsic(Opcode op) {
  return op == Opcode::kMemSet || op == Opcode::kMemCopy;
}
/// Pure instrumentation annotation: touches no memory, computes nothing,
/// only feeds the runtime when executed.
constexpr bool is_report(Opcode op) { return op == Opcode::kReport; }
/// Synchronization intrinsics: move no data, define no register; they scope
/// the sync-aware pruning pass, and kHandoff feeds the runtime's ownership
/// claim (Session::handoff).
constexpr bool is_sync_intrinsic(Opcode op) {
  return op == Opcode::kAcquire || op == Opcode::kRelease ||
         op == Opcode::kHandoff;
}
constexpr bool is_terminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet;
}

struct Instr {
  Opcode op = Opcode::kConst;
  Reg dst = 0;
  Reg a = 0;
  Reg b = 0;
  std::int64_t imm = 0;       ///< constant, or load/store address offset
  std::uint32_t size = 8;     ///< access width in bytes (loads/stores)
  std::uint32_t target = 0;   ///< branch target block; access kind (kReport)
  std::uint32_t target2 = 0;  ///< false-branch target (kCondBr)
  bool instrumented = false;  ///< set by the instrumentation pass

  /// Compensation annotations (loads/stores only), set when the merging
  /// pass folds provably-same-address accesses into this one: when this
  /// instruction's runtime call fires it additionally delivers this many
  /// reads/writes of the same address and width, keeping the detector's
  /// view count-identical to the unmerged program.
  std::uint32_t extra_reads = 0;
  std::uint32_t extra_writes = 0;
};

struct BasicBlock {
  std::vector<Instr> instrs;
};

struct Function {
  std::string name;
  std::uint32_t num_regs = 0;
  std::uint32_t num_args = 0;  ///< args arrive in r0..r(num_args-1)
  std::vector<BasicBlock> blocks;
};

struct Module {
  std::vector<Function> functions;

  Function* find(const std::string& name) {
    for (auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
  const Function* find(const std::string& name) const {
    for (const auto& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
};

/// Structural validation: register indices in range, branch targets valid,
/// every block terminated exactly once (no dead tail instructions), call
/// targets within the module, nonzero access sizes. Returns an empty string
/// when the module is well-formed, otherwise the first problem found.
std::string verify(const Module& module);
std::string verify_function(const Module& module, const Function& fn);

/// Human-readable listing (a disassembler); instrumented accesses are
/// marked with '*', mirroring what the pass decided.
std::string to_string(const Function& fn);
std::string to_string(const Module& module);

/// Convenience builder used by tests and workload programs.
class FunctionBuilder {
 public:
  explicit FunctionBuilder(std::string name, std::uint32_t num_args = 0);

  Reg fresh_reg();
  /// Argument registers are r0..r(num_args-1).
  Reg arg(std::uint32_t i) const { return i; }

  /// Creates a new (empty) block and returns its index.
  std::uint32_t new_block();
  /// Redirects subsequent emission into block `b`.
  void set_block(std::uint32_t b) { current_ = b; }
  std::uint32_t current_block() const { return current_; }

  Reg const_val(std::int64_t v);
  /// Register move dst = src (mutable registers replace SSA phis for loops).
  void move(Reg dst, Reg src);
  Reg add(Reg a, Reg b);
  Reg sub(Reg a, Reg b);
  Reg mul(Reg a, Reg b);
  Reg rem(Reg a, Reg b);
  Reg cmp_lt(Reg a, Reg b);
  Reg cmp_eq(Reg a, Reg b);
  Reg load(Reg addr, std::int64_t offset = 0, std::uint32_t size = 8);
  void store(Reg addr, Reg value, std::int64_t offset = 0,
             std::uint32_t size = 8);
  /// dst = call functions[callee](regs[first_arg .. first_arg+num_args-1]).
  Reg call(std::uint32_t callee, Reg first_arg, std::uint32_t num_args);
  /// memset(regs[addr], value, regs[len]).
  void mem_set(Reg addr, Reg len, std::uint8_t value);
  /// memcpy(regs[dst_addr], regs[src_addr], regs[len]).
  void mem_copy(Reg dst_addr, Reg src_addr, Reg len);
  /// Bulk instrumentation report: regs[count] accesses (writes when
  /// `is_write`) at [regs[base] + offset], width `size`. Emitted marked
  /// instrumented — a report that calls nothing is dead weight.
  void report(Reg base, Reg count, bool is_write, std::int64_t offset = 0,
              std::uint32_t size = 8);
  /// Sync intrinsics: an acquire/release bracket for the executing thread.
  void acquire();
  void release();
  /// handoff [regs[base] + offset, + regs[len]) to the executing thread.
  void handoff(Reg base, Reg len, std::int64_t offset = 0);
  void br(std::uint32_t target);
  void cond_br(Reg cond, std::uint32_t if_true, std::uint32_t if_false);
  void ret(Reg value);

  Function take();

 private:
  Instr& emit(Instr i);
  Function fn_;
  std::uint32_t current_ = 0;
};

}  // namespace pred::ir
