#include "instrument/analysis/generator.hpp"

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"

namespace pred::ir {

namespace {

class FunctionGen {
 public:
  /// `pool`, when non-null and non-empty, lists module function indices the
  /// generated code may call; segments then include call shapes.
  FunctionGen(Xorshift64& rng, std::string name, const GeneratorOptions& opts,
              const std::vector<std::uint32_t>* pool = nullptr)
      : rng_(rng), opts_(opts), pool_(pool),
        b_(std::move(name), /*num_args=*/2) {
    // A small pool of (offset, size) slots shared by every invariant access
    // in the function: repeats are what give the dedup and merging passes
    // something to find.
    const std::uint32_t pool_size = 3 + rng_.next_below(4);
    for (std::uint32_t i = 0; i < pool_size; ++i) {
      static constexpr std::uint32_t kSizes[] = {1, 2, 4, 8};
      const std::uint32_t size = kSizes[rng_.next_below(4)];
      std::int64_t off =
          8 * static_cast<std::int64_t>(rng_.next_below(opts_.max_offset_words));
      if (size < 8) off += size * rng_.next_below(8 / size);  // stay in-word
      slots_.push_back({off, size});
    }
  }

  Function build(std::uint32_t segments) {
    emit_access_run(opts_.accesses_per_block);
    const bool calls = pool_ != nullptr && !pool_->empty();
    for (std::uint32_t s = 0; s < segments; ++s) {
      // The call-free arm must draw exactly the RNG sequence it always has:
      // modules generated with callees == 0 stay byte-identical across the
      // introduction of the call shapes.
      if (calls) {
        switch (rng_.next_below(6)) {
          case 0:
            emit_diamond();
            break;
          case 1:
            emit_early_exit_loop();
            break;
          case 2:
            emit_call_run();
            break;
          case 3:
            emit_call_loop(/*varying=*/false);
            break;
          case 4:
            emit_call_loop(/*varying=*/true);
            break;
          default:
            emit_loop();
            break;
        }
        continue;
      }
      switch (rng_.next_below(4)) {
        case 0:
          emit_diamond();
          break;
        case 1:
          emit_early_exit_loop();
          break;
        default:
          emit_loop();
          break;
      }
    }
    // Sync shapes draw RNG only when enabled, so sync-free modules stay
    // byte-identical across the introduction of the intrinsics (the same
    // contract the call shapes honor above).
    if (opts_.sync_segments > 0) {
      const std::uint32_t syncs = 1 + rng_.next_below(opts_.sync_segments);
      for (std::uint32_t s = 0; s < syncs; ++s) {
        switch (rng_.next_below(3)) {
          case 0:
            emit_sync_bracket();
            break;
          case 1:
            emit_handoff_run(/*interior_sync=*/false);
            break;
          default:
            emit_handoff_run(/*interior_sync=*/true);
            break;
        }
      }
    }
    if (opts_.allow_intrinsics && rng_.next_below(2) == 0) {
      const Reg len =
          b_.const_val(8 * (1 + static_cast<std::int64_t>(rng_.next_below(3))));
      b_.mem_set(buf(), len, static_cast<std::uint8_t>(rng_.next_below(256)));
    }
    b_.ret(b_.const_val(0));
    return b_.take();
  }

 private:
  struct Slot {
    std::int64_t offset;
    std::uint32_t size;
  };

  Reg buf() const { return b_.arg(0); }
  Reg bound() const { return b_.arg(1); }

  /// One access at a pooled invariant address, through a randomly chosen
  /// addressing idiom. All three idioms compute the identical address, so
  /// value numbering must treat them as one.
  void emit_invariant_access() {
    const Slot slot = slots_[rng_.next_below(slots_.size())];
    Reg base = buf();
    std::int64_t off = slot.offset;
    switch (rng_.next_below(3)) {
      case 0:  // direct: [buf + off]
        break;
      case 1: {  // aliased register: t = buf; [t + off]
        const Reg t = b_.fresh_reg();
        b_.move(t, base);
        base = t;
        break;
      }
      default: {  // offset split into the register: t = buf + k; [t + off-k]
        const std::int64_t k =
            off > 0 ? static_cast<std::int64_t>(
                          rng_.next_below(static_cast<std::uint64_t>(off) + 1))
                    : 0;
        base = b_.add(base, b_.const_val(k));
        off -= k;
        break;
      }
    }
    if (rng_.next_below(2) == 0) {
      b_.store(base, b_.const_val(static_cast<std::int64_t>(rng_.next_below(64))),
               off, slot.size);
    } else {
      b_.load(base, off, slot.size);
    }
  }

  /// One access whose address depends on the induction variable — never
  /// hoistable, keeps the pruned loops honest.
  void emit_varying_access(Reg i) {
    const Reg scaled = b_.mul(i, b_.const_val(8));
    const Reg addr = b_.add(buf(), scaled);
    const std::int64_t off = 8 * static_cast<std::int64_t>(rng_.next_below(2));
    if (rng_.next_below(2) == 0) {
      b_.store(addr, b_.const_val(static_cast<std::int64_t>(rng_.next_below(64))),
               off, 8);
    } else {
      b_.load(addr, off, 8);
    }
  }

  void emit_access_run(std::uint32_t count, Reg i = kNoReg) {
    for (std::uint32_t a = 0; a < count; ++a) {
      if (i != kNoReg && rng_.next_below(4) == 0) {
        emit_varying_access(i);
      } else {
        emit_invariant_access();
      }
    }
  }

  /// Acquire/release bracket around an ordinary access run: no ownership
  /// transfers and no claim leaves a line in the {owner, W} state, so
  /// sync-scoped pruning must leave every access alone.
  void emit_sync_bracket() {
    b_.acquire();
    emit_access_run(opts_.accesses_per_block);
    b_.release();
  }

  /// Handoff of a constant-length prefix of buf followed by a write-first
  /// access run provably inside the transferred range — the exact shape
  /// sync-scoped pruning elides. With `interior_sync` a mid-run acquire
  /// closes the held range, so accesses after it must stay instrumented.
  void emit_handoff_run(bool interior_sync) {
    const std::uint32_t words = 2 + rng_.next_below(4);  // 2..5 words
    const Reg len = b_.const_val(8 * static_cast<std::int64_t>(words));
    b_.handoff(buf(), len);
    const std::uint32_t accesses = 2 + rng_.next_below(4);
    for (std::uint32_t i = 0; i < accesses; ++i) {
      if (interior_sync && i == accesses / 2) b_.acquire();
      const std::int64_t off =
          8 * static_cast<std::int64_t>(rng_.next_below(words));
      // Vary the addressing idiom so the pruning pass must rely on value
      // numbering, mirroring emit_invariant_access.
      Reg base = buf();
      if (rng_.next_below(3) == 0) {
        const Reg t = b_.fresh_reg();
        b_.move(t, base);
        base = t;
      }
      if (i == 0 || rng_.next_below(2) == 0) {
        b_.store(base, b_.const_val(static_cast<std::int64_t>(
                           rng_.next_below(64))),
                 off, 8);
      } else {
        b_.load(base, off, 8);
      }
    }
  }

  /// Canonical counted loop: preheader (tail of the current block), a
  /// header testing `i < n`, a single body/latch block stepping i by a
  /// constant, and an exit that becomes the new current block.
  void emit_loop() {
    const Reg i = b_.fresh_reg();
    b_.move(i, b_.const_val(0));
    const std::uint32_t header = b_.new_block();
    const std::uint32_t body = b_.new_block();
    const std::uint32_t exit = b_.new_block();
    b_.br(header);

    b_.set_block(header);
    b_.cond_br(b_.cmp_lt(i, bound()), body, exit);

    b_.set_block(body);
    emit_access_run(opts_.accesses_per_block, i);
    const Reg step =
        b_.const_val(1 + static_cast<std::int64_t>(rng_.next_below(3)));
    b_.move(i, b_.add(i, step));
    b_.br(header);

    b_.set_block(exit);
  }

  /// Counted loop whose latch is a *conditional* branch: after stepping i,
  /// the body may leave the loop early when a runtime property of i holds.
  /// The header still bounds the loop (i < n), so execution terminates, but
  /// the trip count is NOT ceil((n - i0) / step) — batching must reject this
  /// shape or it over-delivers.
  void emit_early_exit_loop() {
    const Reg i = b_.fresh_reg();
    b_.move(i, b_.const_val(0));
    const std::uint32_t header = b_.new_block();
    const std::uint32_t body = b_.new_block();
    const std::uint32_t exit = b_.new_block();
    b_.br(header);

    b_.set_block(header);
    b_.cond_br(b_.cmp_lt(i, bound()), body, exit);

    b_.set_block(body);
    emit_access_run(opts_.accesses_per_block, i);
    const Reg step =
        b_.const_val(1 + static_cast<std::int64_t>(rng_.next_below(3)));
    b_.move(i, b_.add(i, step));
    const Reg k =
        b_.const_val(3 + static_cast<std::int64_t>(rng_.next_below(4)));
    const Reg leave = b_.cmp_eq(b_.rem(i, k), b_.const_val(0));
    b_.cond_br(leave, exit, header);

    b_.set_block(exit);
  }

  /// Diamond picked by a runtime property of n (both arms are live across
  /// inputs, so pruning cannot treat either as dead).
  void emit_diamond() {
    const Reg k =
        b_.const_val(2 + static_cast<std::int64_t>(rng_.next_below(3)));
    const Reg cond = b_.cmp_eq(b_.rem(bound(), k), b_.const_val(0));
    const std::uint32_t then_bb = b_.new_block();
    const std::uint32_t else_bb = b_.new_block();
    const std::uint32_t join = b_.new_block();
    b_.cond_br(cond, then_bb, else_bb);

    b_.set_block(then_bb);
    emit_access_run(opts_.accesses_per_block);
    b_.br(join);

    b_.set_block(else_bb);
    emit_access_run(opts_.accesses_per_block);
    b_.br(join);

    b_.set_block(join);
  }

  /// One or two calls with loop-free, provably invariant arguments: the
  /// pointer is buf itself, the count a small constant or n.
  void emit_call_run() {
    const std::uint32_t count = 1 + rng_.next_below(2);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t callee =
          (*pool_)[rng_.next_below(pool_->size())];
      const Reg a0 = b_.fresh_reg();
      const Reg a1 = b_.fresh_reg();  // consecutive with a0, as kCall needs
      b_.move(a0, buf());
      if (rng_.next_below(2) == 0) {
        b_.move(a1, b_.const_val(
                        1 + static_cast<std::int64_t>(rng_.next_below(8))));
      } else {
        b_.move(a1, bound());
      }
      b_.call(callee, a0, 2);
    }
  }

  /// Canonical counted loop around a call. With `varying` false the callee
  /// gets (buf, small const) every iteration — the exact shape
  /// interprocedural batching expands through a summarizable callee. With
  /// `varying` true the pointer is buf + i*8, so the per-iteration access
  /// set moves and batching must keep its hands off.
  void emit_call_loop(bool varying) {
    const std::uint32_t callee = (*pool_)[rng_.next_below(pool_->size())];
    const Reg i = b_.fresh_reg();
    b_.move(i, b_.const_val(0));
    const std::uint32_t header = b_.new_block();
    const std::uint32_t body = b_.new_block();
    const std::uint32_t exit = b_.new_block();
    b_.br(header);

    b_.set_block(header);
    b_.cond_br(b_.cmp_lt(i, bound()), body, exit);

    b_.set_block(body);
    if (rng_.next_below(2) == 0) emit_invariant_access();
    const Reg a0 = b_.fresh_reg();
    const Reg a1 = b_.fresh_reg();
    if (varying) {
      const Reg scaled = b_.mul(i, b_.const_val(8));
      b_.move(a0, b_.add(buf(), scaled));
      b_.move(a1, b_.const_val(
                      1 + static_cast<std::int64_t>(rng_.next_below(4))));
    } else {
      b_.move(a0, buf());
      b_.move(a1, b_.const_val(
                      1 + static_cast<std::int64_t>(rng_.next_below(8))));
    }
    b_.call(callee, a0, 2);
    b_.move(i, b_.add(i, b_.const_val(1)));
    b_.br(header);

    b_.set_block(exit);
  }

  static constexpr Reg kNoReg = 0xffffffffu;

  Xorshift64& rng_;
  const GeneratorOptions& opts_;
  const std::vector<std::uint32_t>* pool_;
  FunctionBuilder b_;
  std::vector<Slot> slots_;
};

std::int64_t random_word_offset(Xorshift64& rng,
                                const GeneratorOptions& opts) {
  return 8 * static_cast<std::int64_t>(rng.next_below(opts.max_offset_words));
}

/// Constant-bound loop leaf: the whole control flow is decided by constants,
/// so the summarizer unrolls it and stays exact — including the access whose
/// address varies with the (constant-valued) induction variable.
Function make_const_loop_leaf(Xorshift64& rng, std::string name,
                              const GeneratorOptions& opts) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const std::int64_t off = random_word_offset(rng, opts);
  const Reg i = b.fresh_reg();
  b.move(i, b.const_val(0));
  const Reg k =
      b.const_val(2 + static_cast<std::int64_t>(rng.next_below(4)));
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t exit = b.new_block();
  b.br(header);

  b.set_block(header);
  b.cond_br(b.cmp_lt(i, k), body, exit);

  b.set_block(body);
  b.store(b.arg(0), b.const_val(7), off, 8);
  const Reg scaled = b.mul(i, b.const_val(8));
  b.load(b.add(b.arg(0), scaled), 0, 8);
  b.move(i, b.add(i, b.const_val(1)));
  b.br(header);

  b.set_block(exit);
  b.load(b.arg(0), off, 8);
  b.ret(b.const_val(0));
  return b.take();
}

/// Data-dependent leaf: the store's address hinges on n, which no caller
/// context can make constant — summarization must bail to ⊤.
Function make_data_dep_leaf(Xorshift64& rng, std::string name) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const Reg m = b.rem(b.arg(1), b.const_val(4));
  const Reg scaled = b.mul(m, b.const_val(8));
  b.store(b.add(b.arg(0), scaled),
          b.const_val(static_cast<std::int64_t>(rng.next_below(64))), 0, 8);
  b.load(b.arg(0), 0, 8);
  b.ret(b.const_val(0));
  return b.take();
}

/// Intrinsic leaf: an instrumented memset delivers a length-dependent range
/// of accesses — ⊤ by definition.
Function make_intrinsic_leaf(Xorshift64& rng, std::string name) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const Reg len = b.const_val(
      16 + 8 * static_cast<std::int64_t>(rng.next_below(3)));
  b.mem_set(b.arg(0), len, static_cast<std::uint8_t>(rng.next_below(256)));
  b.ret(b.const_val(0));
  return b.take();
}

/// Self-recursive leaf (⊤ by cycle membership). The recursion depth is
/// folded through n % 9 up front, so even a caller passing large n keeps
/// the call stack within the interpreter's depth limit.
Function make_recursive_leaf(Xorshift64& rng, std::string name,
                             std::uint32_t self,
                             const GeneratorOptions& opts) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const std::int64_t off = random_word_offset(rng, opts);
  const Reg k = b.rem(b.arg(1), b.const_val(9));
  b.store(b.arg(0), b.const_val(5), off, 8);
  const std::uint32_t rec = b.new_block();
  const std::uint32_t base = b.new_block();
  b.cond_br(b.cmp_lt(k, b.const_val(1)), base, rec);

  b.set_block(rec);
  const Reg a0 = b.fresh_reg();
  const Reg a1 = b.fresh_reg();
  b.move(a0, b.arg(0));
  b.move(a1, b.sub(k, b.const_val(1)));
  b.call(self, a0, 2);
  b.ret(b.const_val(0));

  b.set_block(base);
  b.ret(b.const_val(0));
  return b.take();
}

/// First half of a mutually recursive pair: calls its partner with n - 1
/// when n >= 1.
Function make_mutual_a(Xorshift64& rng, std::string name,
                       std::uint32_t partner, const GeneratorOptions& opts) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const std::int64_t off = random_word_offset(rng, opts);
  b.load(b.arg(0), off, 8);
  const std::uint32_t rec = b.new_block();
  const std::uint32_t done = b.new_block();
  b.cond_br(b.cmp_lt(b.arg(1), b.const_val(1)), done, rec);

  b.set_block(rec);
  const Reg a0 = b.fresh_reg();
  const Reg a1 = b.fresh_reg();
  b.move(a0, b.arg(0));
  b.move(a1, b.sub(b.arg(1), b.const_val(1)));
  b.call(partner, a0, 2);
  b.ret(b.const_val(0));

  b.set_block(done);
  b.ret(b.const_val(0));
  return b.take();
}

/// Second half: bounces back to the first with (n % 5) - 1, so the mutual
/// chain shrinks fast and terminates for every n.
Function make_mutual_b(Xorshift64& rng, std::string name,
                       std::uint32_t partner, const GeneratorOptions& opts) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const std::int64_t off = random_word_offset(rng, opts);
  const Reg k = b.rem(b.arg(1), b.const_val(5));
  b.store(b.arg(0), b.const_val(3), off, 8);
  const std::uint32_t rec = b.new_block();
  const std::uint32_t done = b.new_block();
  b.cond_br(b.cmp_lt(k, b.const_val(1)), done, rec);

  b.set_block(rec);
  const Reg a0 = b.fresh_reg();
  const Reg a1 = b.fresh_reg();
  b.move(a0, b.arg(0));
  b.move(a1, b.sub(k, b.const_val(1)));
  b.call(partner, a0, 2);
  b.ret(b.const_val(0));

  b.set_block(done);
  b.ret(b.const_val(0));
  return b.take();
}

/// Planted false-sharing slot function (see GeneratorOptions): thread t's
/// kernel. Every access is a provably constant offset from buf inside slot
/// t, expressed through the same varied addressing idioms the fuzz modules
/// use elsewhere — direct, aliased register, offset split across an add and
/// the immediate — so the repair rewrite must rely on value numbering, not
/// syntax. Deliberately draws no RNG.
Function make_planted_slot(std::string name, std::uint32_t t,
                           const GeneratorOptions& opts) {
  FunctionBuilder b(std::move(name), /*num_args=*/2);
  const std::int64_t slot_start =
      8 * static_cast<std::int64_t>(opts.planted_base_words) +
      static_cast<std::int64_t>(t) *
          static_cast<std::int64_t>(opts.planted_stride);
  const std::uint32_t words = opts.planted_stride < 8
                                  ? 1
                                  : opts.planted_stride / 8;

  const Reg sum = b.fresh_reg();
  b.move(sum, b.const_val(0));
  const Reg i = b.fresh_reg();
  b.move(i, b.const_val(0));
  const Reg k =
      b.const_val(static_cast<std::int64_t>(opts.planted_iters));
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t exit = b.new_block();
  b.br(header);

  b.set_block(header);
  b.cond_br(b.cmp_lt(i, k), body, exit);

  b.set_block(body);
  if (opts.planted_handoff) {
    // Claim the whole planted region for this thread before touching it —
    // every access below lands inside the held range.
    const Reg region_len = b.const_val(
        static_cast<std::int64_t>(opts.planted_slots) *
        static_cast<std::int64_t>(opts.planted_stride));
    b.handoff(b.arg(0), region_len,
              8 * static_cast<std::int64_t>(opts.planted_base_words));
  }
  for (std::uint32_t w = 0; w < words; ++w) {
    const std::int64_t off = slot_start + 8 * static_cast<std::int64_t>(w);
    Reg addr = b.arg(0);
    std::int64_t imm = off;
    switch (w % 3) {
      case 0:  // direct: [buf + off]
        break;
      case 1: {  // aliased register: a = buf; [a + off]
        const Reg a = b.fresh_reg();
        b.move(a, addr);
        addr = a;
        break;
      }
      default: {  // split: a = buf + off/2; [a + (off - off/2)]
        const std::int64_t half = off / 2;
        addr = b.add(addr, b.const_val(half));
        imm = off - half;
        break;
      }
    }
    const Reg v = b.load(addr, imm, 8);
    b.store(addr, b.add(v, b.const_val(1)), imm, 8);
    b.move(sum, b.add(sum, v));
  }
  b.move(i, b.add(i, b.const_val(1)));
  b.br(header);

  b.set_block(exit);
  b.ret(sum);
  return b.take();
}

}  // namespace

Module generate_module(std::uint64_t seed, const GeneratorOptions& opts) {
  Xorshift64 rng(seed ^ 0xd1b54a32d192ed03ull);
  Module m;
  std::vector<std::uint32_t> pool;
  if (opts.callees > 0) {
    GeneratorOptions leaf_opts = opts;
    leaf_opts.allow_intrinsics = false;  // leaves get intrinsics explicitly
    std::uint32_t c = 0;
    while (c < opts.callees) {
      const auto idx = static_cast<std::uint32_t>(m.functions.size());
      const std::string name = "callee" + std::to_string(c);
      switch (opts.summarizable_callees ? rng.next_below(2)
                                        : rng.next_below(6)) {
        case 0: {
          FunctionGen gen(rng, name, leaf_opts);
          m.functions.push_back(gen.build(0));
          break;
        }
        case 1:
          m.functions.push_back(make_const_loop_leaf(rng, name, leaf_opts));
          break;
        case 2:
          m.functions.push_back(make_data_dep_leaf(rng, name));
          break;
        case 3:
          m.functions.push_back(make_recursive_leaf(rng, name, idx,
                                                    leaf_opts));
          break;
        case 4:
          if (c + 1 < opts.callees) {
            m.functions.push_back(make_mutual_a(rng, name, idx + 1,
                                                leaf_opts));
            pool.push_back(idx);
            ++c;
            m.functions.push_back(make_mutual_b(
                rng, "callee" + std::to_string(c), idx, leaf_opts));
            pool.push_back(idx + 1);
            ++c;
            continue;
          }
          m.functions.push_back(make_intrinsic_leaf(rng, name));
          break;
        default:
          m.functions.push_back(make_intrinsic_leaf(rng, name));
          break;
      }
      pool.push_back(idx);
      ++c;
    }
  }
  const std::uint32_t functions = 1 + static_cast<std::uint32_t>(
                                          rng.next_below(2));
  for (std::uint32_t f = 0; f < functions; ++f) {
    const std::string name = f == 0 ? "gen_main" : "gen_aux";
    const std::uint32_t segments =
        f == 0 ? opts.segments : 1 + static_cast<std::uint32_t>(
                                         rng.next_below(2));
    FunctionGen gen(rng, name, opts, pool.empty() ? nullptr : &pool);
    m.functions.push_back(gen.build(segments));
  }
  for (std::uint32_t t = 0; t < opts.planted_slots; ++t) {
    m.functions.push_back(
        make_planted_slot("slot" + std::to_string(t), t, opts));
  }
  const std::string err = verify(m);
  PRED_CHECK(err.empty());
  return m;
}

}  // namespace pred::ir
