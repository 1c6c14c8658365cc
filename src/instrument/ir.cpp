#include "instrument/ir.hpp"

#include "common/check.hpp"

namespace pred::ir {

FunctionBuilder::FunctionBuilder(std::string name, std::uint32_t num_args) {
  fn_.name = std::move(name);
  fn_.num_args = num_args;
  fn_.num_regs = num_args;
  fn_.blocks.emplace_back();
}

Reg FunctionBuilder::fresh_reg() { return fn_.num_regs++; }

std::uint32_t FunctionBuilder::new_block() {
  fn_.blocks.emplace_back();
  return static_cast<std::uint32_t>(fn_.blocks.size() - 1);
}

Instr& FunctionBuilder::emit(Instr i) {
  PRED_CHECK(current_ < fn_.blocks.size());
  fn_.blocks[current_].instrs.push_back(i);
  return fn_.blocks[current_].instrs.back();
}

Reg FunctionBuilder::const_val(std::int64_t v) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kConst, .dst = r, .imm = v});
  return r;
}

void FunctionBuilder::move(Reg dst, Reg src) {
  emit({.op = Opcode::kMove, .dst = dst, .a = src});
}

Reg FunctionBuilder::add(Reg a, Reg b) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kAdd, .dst = r, .a = a, .b = b});
  return r;
}
Reg FunctionBuilder::sub(Reg a, Reg b) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kSub, .dst = r, .a = a, .b = b});
  return r;
}
Reg FunctionBuilder::mul(Reg a, Reg b) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kMul, .dst = r, .a = a, .b = b});
  return r;
}
Reg FunctionBuilder::rem(Reg a, Reg b) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kRem, .dst = r, .a = a, .b = b});
  return r;
}
Reg FunctionBuilder::cmp_lt(Reg a, Reg b) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kCmpLt, .dst = r, .a = a, .b = b});
  return r;
}
Reg FunctionBuilder::cmp_eq(Reg a, Reg b) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kCmpEq, .dst = r, .a = a, .b = b});
  return r;
}

Reg FunctionBuilder::load(Reg addr, std::int64_t offset, std::uint32_t size) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kLoad, .dst = r, .a = addr, .imm = offset, .size = size});
  return r;
}

void FunctionBuilder::store(Reg addr, Reg value, std::int64_t offset,
                            std::uint32_t size) {
  emit({.op = Opcode::kStore, .a = addr, .b = value, .imm = offset,
        .size = size});
}

Reg FunctionBuilder::call(std::uint32_t callee, Reg first_arg,
                          std::uint32_t num_args) {
  Reg r = fresh_reg();
  emit({.op = Opcode::kCall, .dst = r, .a = first_arg,
        .b = static_cast<Reg>(num_args),
        .imm = static_cast<std::int64_t>(callee)});
  return r;
}

void FunctionBuilder::mem_set(Reg addr, Reg len, std::uint8_t value) {
  emit({.op = Opcode::kMemSet, .a = addr, .b = len,
        .imm = static_cast<std::int64_t>(value)});
}

void FunctionBuilder::mem_copy(Reg dst_addr, Reg src_addr, Reg len) {
  emit({.op = Opcode::kMemCopy, .dst = len, .a = dst_addr, .b = src_addr});
}

void FunctionBuilder::report(Reg base, Reg count, bool is_write,
                             std::int64_t offset, std::uint32_t size) {
  emit({.op = Opcode::kReport, .a = base, .b = count, .imm = offset,
        .size = size, .target = is_write ? 1u : 0u, .instrumented = true});
}

void FunctionBuilder::acquire() { emit({.op = Opcode::kAcquire}); }

void FunctionBuilder::release() { emit({.op = Opcode::kRelease}); }

void FunctionBuilder::handoff(Reg base, Reg len, std::int64_t offset) {
  emit({.op = Opcode::kHandoff, .a = base, .b = len, .imm = offset});
}

void FunctionBuilder::br(std::uint32_t target) {
  emit({.op = Opcode::kBr, .target = target});
}

void FunctionBuilder::cond_br(Reg cond, std::uint32_t if_true,
                              std::uint32_t if_false) {
  emit({.op = Opcode::kCondBr, .a = cond, .target = if_true,
        .target2 = if_false});
}

void FunctionBuilder::ret(Reg value) {
  emit({.op = Opcode::kRet, .a = value});
}

Function FunctionBuilder::take() { return std::move(fn_); }

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

namespace {

std::string problem(const Function& fn, std::size_t block, std::size_t idx,
                    const char* what) {
  return fn.name + ": block " + std::to_string(block) + " instr " +
         std::to_string(idx) + ": " + what;
}

bool defines_register(Opcode op) {
  switch (op) {
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

bool reads_a(Opcode op) {
  // Operand-less opcodes: constants and unconditional branches, plus the
  // operand-less sync intrinsics (kHandoff does read a — its base
  // register).
  return op != Opcode::kConst && op != Opcode::kBr &&
         op != Opcode::kAcquire && op != Opcode::kRelease;
}

bool reads_b(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kRem:
    case Opcode::kCmpLt:
    case Opcode::kCmpEq:
    case Opcode::kStore:
    case Opcode::kMemSet:
    case Opcode::kMemCopy:
    case Opcode::kReport:
    case Opcode::kHandoff:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string verify_function(const Module& module, const Function& fn) {
  if (fn.blocks.empty()) return fn.name + ": function has no blocks";
  if (fn.num_args > fn.num_regs) {
    return fn.name + ": more arguments than registers";
  }
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const auto& instrs = fn.blocks[b].instrs;
    if (instrs.empty()) return problem(fn, b, 0, "empty block");
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& in = instrs[i];
      const bool last = i + 1 == instrs.size();
      if (is_terminator(in.op) != last) {
        return problem(fn, b, i,
                       last ? "block does not end in a terminator"
                            : "terminator before end of block");
      }
      if (defines_register(in.op) && in.dst >= fn.num_regs) {
        return problem(fn, b, i, "dst register out of range");
      }
      if (reads_a(in.op) && in.a >= fn.num_regs) {
        return problem(fn, b, i, "operand a out of range");
      }
      if (reads_b(in.op) && in.b >= fn.num_regs &&
          in.op != Opcode::kCall) {
        return problem(fn, b, i, "operand b out of range");
      }
      if (in.op == Opcode::kMemCopy && in.dst >= fn.num_regs) {
        return problem(fn, b, i, "length register out of range");
      }
      if ((is_memory_access(in.op) || is_report(in.op)) &&
          (in.size == 0 || in.size > 8)) {
        return problem(fn, b, i, "access size must be 1..8");
      }
      if (is_report(in.op) && in.target > 1) {
        return problem(fn, b, i, "report kind must be read (0) or write (1)");
      }
      if ((in.extra_reads || in.extra_writes) && !is_memory_access(in.op)) {
        return problem(fn, b, i,
                       "compensation extras on a non-load/store instruction");
      }
      if (in.op == Opcode::kBr && in.target >= fn.blocks.size()) {
        return problem(fn, b, i, "branch target out of range");
      }
      if (in.op == Opcode::kCondBr &&
          (in.target >= fn.blocks.size() ||
           in.target2 >= fn.blocks.size())) {
        return problem(fn, b, i, "conditional branch target out of range");
      }
      if (in.op == Opcode::kCall) {
        if (in.imm < 0 ||
            static_cast<std::size_t>(in.imm) >= module.functions.size()) {
          return problem(fn, b, i, "call target out of range");
        }
        const Function& callee =
            module.functions[static_cast<std::size_t>(in.imm)];
        if (in.b != callee.num_args) {
          return problem(fn, b, i, "call argument count mismatch");
        }
        if (in.b > 0 && in.a + in.b > fn.num_regs) {
          return problem(fn, b, i, "call argument registers out of range");
        }
      }
    }
  }
  return {};
}

std::string verify(const Module& module) {
  for (const Function& fn : module.functions) {
    std::string err = verify_function(module, fn);
    if (!err.empty()) return err;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

namespace {

std::string instr_to_string(const Instr& in) {
  auto r = [](Reg reg) {
    std::string s = "r";
    return s.append(std::to_string(reg));
  };
  const std::string mark = in.instrumented ? "* " : "  ";
  // " +Nr +Nw" suffix carrying the merge compensation counts.
  auto extras = [&in] {
    std::string s;
    if (in.extra_reads) s += " +" + std::to_string(in.extra_reads) + "r";
    if (in.extra_writes) s += " +" + std::to_string(in.extra_writes) + "w";
    return s;
  };
  switch (in.op) {
    case Opcode::kConst:
      return mark + r(in.dst) + " = const " + std::to_string(in.imm);
    case Opcode::kMove:
      return mark + r(in.dst) + " = " + r(in.a);
    case Opcode::kAdd:
      return mark + r(in.dst) + " = " + r(in.a) + " + " + r(in.b);
    case Opcode::kSub:
      return mark + r(in.dst) + " = " + r(in.a) + " - " + r(in.b);
    case Opcode::kMul:
      return mark + r(in.dst) + " = " + r(in.a) + " * " + r(in.b);
    case Opcode::kDiv:
      return mark + r(in.dst) + " = " + r(in.a) + " / " + r(in.b);
    case Opcode::kRem:
      return mark + r(in.dst) + " = " + r(in.a) + " % " + r(in.b);
    case Opcode::kCmpLt:
      return mark + r(in.dst) + " = " + r(in.a) + " < " + r(in.b);
    case Opcode::kCmpEq:
      return mark + r(in.dst) + " = " + r(in.a) + " == " + r(in.b);
    case Opcode::kLoad:
      return mark + r(in.dst) + " = load." + std::to_string(in.size) + " [" +
             r(in.a) + (in.imm ? " + " + std::to_string(in.imm) : "") + "]" +
             extras();
    case Opcode::kStore:
      return mark + "store." + std::to_string(in.size) + " [" + r(in.a) +
             (in.imm ? " + " + std::to_string(in.imm) : "") + "], " +
             r(in.b) + extras();
    case Opcode::kCall:
      return mark + r(in.dst) + " = call @" + std::to_string(in.imm) + "(" +
             r(in.a) + " .. " + std::to_string(in.b) + " args)";
    case Opcode::kMemSet:
      return mark + "memset [" + r(in.a) + "], " + std::to_string(in.imm) +
             ", len " + r(in.b);
    case Opcode::kMemCopy:
      return mark + "memcpy [" + r(in.a) + "] <- [" + r(in.b) + "], len " +
             r(in.dst);
    case Opcode::kReport:
      return mark + "report." + std::to_string(in.size) + " [" + r(in.a) +
             (in.imm ? " + " + std::to_string(in.imm) : "") + "] x " +
             r(in.b) + ", " + (in.target ? "write" : "read");
    case Opcode::kBr:
      return mark + "br bb" + std::to_string(in.target);
    case Opcode::kCondBr:
      return mark + "br " + r(in.a) + " ? bb" + std::to_string(in.target) +
             " : bb" + std::to_string(in.target2);
    case Opcode::kRet:
      return mark + "ret " + r(in.a);
    case Opcode::kAcquire:
      return mark + "acquire";
    case Opcode::kRelease:
      return mark + "release";
    case Opcode::kHandoff:
      return mark + "handoff [" + r(in.a) +
             (in.imm ? " + " + std::to_string(in.imm) : "") + "], len " +
             r(in.b);
  }
  return mark + "?";
}

}  // namespace

std::string to_string(const Function& fn) {
  std::string out = "func " + fn.name + "(" + std::to_string(fn.num_args) +
                    " args, " + std::to_string(fn.num_regs) + " regs):\n";
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    out += "bb" + std::to_string(b) + ":\n";
    for (const Instr& in : fn.blocks[b].instrs) {
      out += "  " + instr_to_string(in) + "\n";
    }
  }
  return out;
}

std::string to_string(const Module& module) {
  std::string out;
  for (const Function& fn : module.functions) {
    out += to_string(fn);
    out += "\n";
  }
  return out;
}

}  // namespace pred::ir
