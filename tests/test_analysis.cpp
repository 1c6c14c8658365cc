// Tests for the whole-function static analysis pipeline
// (src/instrument/analysis/) and the pruning passes built on it: CFG and
// reachability, dominators, the dataflow engine via constant propagation,
// value numbering, natural loops, the random module generator — and the
// headline property: modules pruned by loop batching + dominance merging
// produce BIT-IDENTICAL detector reports to selectively-instrumented ones,
// while making strictly fewer runtime calls.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "instrument/analysis/cfg.hpp"
#include "instrument/analysis/constants.hpp"
#include "instrument/analysis/dominators.hpp"
#include "instrument/analysis/generator.hpp"
#include "instrument/analysis/loops.hpp"
#include "instrument/analysis/value_numbering.hpp"
#include "instrument/interp.hpp"
#include "instrument/ir.hpp"
#include "instrument/pass.hpp"
#include "report_io/report_json.hpp"

namespace pred::ir {
namespace {

// ---------------------------------------------------------------------------
// Shared builders
// ---------------------------------------------------------------------------

/// bb0 --cond--> bb1 / bb2 --> bb3 (join) --> bb4 (tail); bb5 unreachable.
Function make_diamond() {
  FunctionBuilder b("diamond", 2);
  const Reg c = b.cmp_lt(b.arg(0), b.arg(1));
  const std::uint32_t then_bb = b.new_block();
  const std::uint32_t else_bb = b.new_block();
  const std::uint32_t join = b.new_block();
  b.cond_br(c, then_bb, else_bb);
  b.set_block(then_bb);
  b.br(join);
  b.set_block(else_bb);
  b.br(join);
  b.set_block(join);
  const std::uint32_t tail = b.new_block();
  b.br(tail);
  b.set_block(tail);
  b.ret(b.const_val(0));
  const std::uint32_t dead = b.new_block();
  b.set_block(dead);
  b.ret(b.const_val(0));
  return b.take();
}

/// Canonical counted loop: bb0 (preheader) -> bb1 (header) -> bb2 (body,
/// latch) -> bb1; bb3 exit. Body stores two loop-invariant slots, reads one
/// of them, and stores one induction-dependent slot.
Module make_loop_module() {
  Module m;
  FunctionBuilder b("loopy", 2);
  const Reg buf = b.arg(0);
  const Reg n = b.arg(1);
  const Reg i = b.fresh_reg();
  b.move(i, b.const_val(0));
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t exit = b.new_block();
  b.br(header);
  b.set_block(header);
  b.cond_br(b.cmp_lt(i, n), body, exit);
  b.set_block(body);
  b.store(buf, i, 0);                       // invariant address
  b.store(buf, i, 8);                       // invariant address
  (void)b.load(buf, 8);                     // invariant address (read)
  const Reg scaled = b.mul(i, b.const_val(8));
  const Reg addr = b.add(buf, scaled);
  b.store(addr, i, 0);                      // induction-dependent
  b.move(i, b.add(i, b.const_val(1)));
  b.br(header);
  b.set_block(exit);
  b.ret(i);
  m.functions.push_back(b.take());
  return m;
}

/// Counted loop whose body latch is CONDITIONAL: after stepping i the body
/// may branch straight to the exit (when i % 3 == 0) instead of returning
/// to the header. bb0 preheader -> bb1 header -> bb2 body/latch; bb3 exit.
/// The body stores a loop-invariant slot — tempting to batch, but the trip
/// count is not ceil((n - i0) / step).
Module make_early_exit_loop_module() {
  Module m;
  FunctionBuilder b("early_exit", 2);
  const Reg buf = b.arg(0);
  const Reg n = b.arg(1);
  const Reg i = b.fresh_reg();
  b.move(i, b.const_val(0));
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t exit = b.new_block();
  b.br(header);
  b.set_block(header);
  b.cond_br(b.cmp_lt(i, n), body, exit);
  b.set_block(body);
  b.store(buf, i, 0);  // loop-invariant address
  b.move(i, b.add(i, b.const_val(1)));
  const Reg leave = b.cmp_eq(b.rem(i, b.const_val(3)), b.const_val(0));
  b.cond_br(leave, exit, header);
  b.set_block(exit);
  b.ret(i);
  m.functions.push_back(b.take());
  return m;
}

/// A back-edge into the ENTRY block: bb0 (entry) loads [buf], steps i, and
/// loops via bb1 — which also loads [buf] — until i reaches n. bb1 -> bb0
/// is single-succ into single-pred, yet bb0 executes once more than bb1
/// (function entry arrives without a CFG edge), so merging across that edge
/// would drop one delivery.
Module make_entry_backedge_module() {
  Module m;
  FunctionBuilder b("entry_backedge", 2);
  const Reg buf = b.arg(0);
  const Reg n = b.arg(1);
  const Reg i = b.fresh_reg();  // reads as zero on entry
  (void)b.load(buf, 0);
  b.move(i, b.add(i, b.const_val(1)));
  const std::uint32_t back = b.new_block();
  const std::uint32_t done = b.new_block();
  b.cond_br(b.cmp_lt(i, n), back, done);
  b.set_block(back);
  (void)b.load(buf, 0);
  b.br(Cfg::kEntry);
  b.set_block(done);
  b.ret(i);
  m.functions.push_back(b.take());
  return m;
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

TEST(Cfg, EdgesReachabilityAndOrder) {
  const Function fn = make_diamond();
  const Cfg cfg(fn);
  ASSERT_EQ(cfg.num_blocks(), 6u);
  EXPECT_EQ(cfg.succs(0), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(cfg.succs(1), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(cfg.preds(3), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(cfg.reachable(3));
  EXPECT_FALSE(cfg.reachable(5));
  EXPECT_EQ(cfg.num_reachable(), 5u);
  ASSERT_FALSE(cfg.reverse_postorder().empty());
  EXPECT_EQ(cfg.reverse_postorder().front(), Cfg::kEntry);
  // join -> tail is the only linear edge: single succ into single pred.
  EXPECT_TRUE(cfg.linear_edge(3, 4));
  EXPECT_FALSE(cfg.linear_edge(1, 3));  // join has two predecessors
  EXPECT_FALSE(cfg.linear_edge(0, 1));  // entry has two successors
}

// ---------------------------------------------------------------------------
// Dominators
// ---------------------------------------------------------------------------

TEST(DomTree, DiamondDominance) {
  const Function fn = make_diamond();
  const Cfg cfg(fn);
  const DomTree dom(cfg);
  EXPECT_EQ(dom.idom(1), 0u);
  EXPECT_EQ(dom.idom(2), 0u);
  EXPECT_EQ(dom.idom(3), 0u);  // join is dominated by the branch, not an arm
  EXPECT_EQ(dom.idom(4), 3u);
  EXPECT_EQ(dom.idom(5), DomTree::kNone);  // unreachable
  EXPECT_TRUE(dom.dominates(0, 4));
  EXPECT_TRUE(dom.dominates(3, 4));
  EXPECT_FALSE(dom.dominates(1, 3));
  EXPECT_TRUE(dom.dominates(2, 2));
  EXPECT_EQ(dom.depth(0), 0u);
  EXPECT_EQ(dom.depth(4), 2u);
}

TEST(DomTree, LoopHeaderDominatesLatch) {
  const Module m = make_loop_module();
  const Cfg cfg(m.functions[0]);
  const DomTree dom(cfg);
  EXPECT_EQ(dom.idom(1), 0u);
  EXPECT_EQ(dom.idom(2), 1u);
  EXPECT_EQ(dom.idom(3), 1u);
  EXPECT_TRUE(dom.dominates(1, 2));   // header dominates the latch...
  EXPECT_FALSE(dom.dominates(2, 1));  // ...establishing the back-edge.
}

// ---------------------------------------------------------------------------
// Dataflow engine via constant propagation
// ---------------------------------------------------------------------------

TEST(Constants, AgreeingArmsStayConstantConflictingArmsVary) {
  FunctionBuilder b("consts", 1);
  const Reg x = b.fresh_reg();
  const Reg y = b.fresh_reg();
  const Reg c = b.cmp_lt(b.arg(0), b.const_val(3));
  const std::uint32_t then_bb = b.new_block();
  const std::uint32_t else_bb = b.new_block();
  const std::uint32_t join = b.new_block();
  b.cond_br(c, then_bb, else_bb);
  b.set_block(then_bb);
  b.move(x, b.const_val(7));
  b.move(y, b.const_val(1));
  b.br(join);
  b.set_block(else_bb);
  b.move(x, b.const_val(7));  // same constant through a different register
  b.move(y, b.const_val(2));  // conflicting constant
  b.br(join);
  b.set_block(join);
  b.ret(x);
  const Function fn = b.take();

  const Cfg cfg(fn);
  const ConstantFacts facts = analyze_constants(fn, cfg);
  const auto& at_join = facts.block_entry[join];
  ASSERT_TRUE(at_join[x].is_const());
  EXPECT_EQ(at_join[x].value, 7);
  EXPECT_EQ(at_join[y].kind, ConstLattice::Kind::kVarying);
  // Non-argument registers read as zero until first defined.
  ASSERT_TRUE(facts.block_entry[Cfg::kEntry][x].is_const());
  EXPECT_EQ(facts.block_entry[Cfg::kEntry][x].value, 0);
  // Arguments are never constant.
  EXPECT_EQ(at_join[b.arg(0)].kind, ConstLattice::Kind::kVarying);
  EXPECT_GT(facts.facts, 0u);
}

// ---------------------------------------------------------------------------
// Value numbering
// ---------------------------------------------------------------------------

TEST(ValueNumbering, UnifiesAliasesAndSplitOffsets) {
  FunctionBuilder b("vn", 1);
  const Reg a = b.arg(0);
  const Reg t = b.fresh_reg();
  b.move(t, a);                             // t aliases a
  const Reg u = b.add(a, b.const_val(16));  // u = a + 16
  (void)b.load(a, 16);                      // [a + 16]
  (void)b.load(t, 16);                      // [t + 16]   same address
  (void)b.load(u, 0);                       // [u]        same address
  (void)b.load(u, 8);                       // [u + 8]    different address
  const Reg killed = b.load(a, 16);         // t redefined next:
  b.move(t, killed);
  (void)b.load(t, 16);                      // no longer [a + 16]
  b.ret(killed);
  const Function fn = b.take();

  ValueNumbering vn(fn);
  std::vector<ValueNumbering::Value> addrs;
  for (const Instr& in : fn.blocks[0].instrs) {
    if (in.op == Opcode::kLoad) addrs.push_back(vn.address_of(in));
    vn.apply(in);
  }
  ASSERT_EQ(addrs.size(), 6u);
  EXPECT_EQ(addrs[0], addrs[1]);  // alias via move
  EXPECT_EQ(addrs[0], addrs[2]);  // offset folded into the register
  EXPECT_NE(addrs[0], addrs[3]);  // distinct offset
  EXPECT_EQ(addrs[3].offset, addrs[0].offset + 8);
  EXPECT_NE(addrs[0], addrs[5]);  // redefinition makes a fresh value
}

TEST(ValueNumbering, SeededConstantsFoldIntoAddresses) {
  FunctionBuilder b("vnc", 1);
  const Reg k = b.fresh_reg();  // entry-constant 0 by zero-initialization
  (void)b.load(b.add(b.arg(0), k), 0);
  (void)b.load(b.arg(0), 0);
  b.ret(k);
  const Function fn = b.take();
  const Cfg cfg(fn);
  const ConstantFacts facts = analyze_constants(fn, cfg);

  ValueNumbering vn(fn);
  vn.seed_constants(facts.block_entry[Cfg::kEntry]);
  std::vector<ValueNumbering::Value> addrs;
  for (const Instr& in : fn.blocks[0].instrs) {
    if (in.op == Opcode::kLoad) addrs.push_back(vn.address_of(in));
    vn.apply(in);
  }
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0], addrs[1]);  // a + 0 == a, provable only via constants
}

// ---------------------------------------------------------------------------
// Natural loops
// ---------------------------------------------------------------------------

TEST(Loops, FindsCountedLoopWithPreheader) {
  const Module m = make_loop_module();
  const Cfg cfg(m.functions[0]);
  const DomTree dom(cfg);
  const auto loops = find_natural_loops(cfg, dom);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, 1u);
  EXPECT_EQ(loops[0].blocks, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(loops[0].latches, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(loops[0].preheader, 0u);
  EXPECT_EQ(loops[0].depth, 1u);
  EXPECT_TRUE(loops[0].contains(2));
  EXPECT_FALSE(loops[0].contains(3));
}

TEST(Loops, NestedLoopsGetDepths) {
  // Two-level nest: outer header bb1, inner header bb3; the inner preheader
  // (bb2) sits inside the outer body.
  FunctionBuilder b("nest", 1);
  const Reg n = b.arg(0);
  const Reg i = b.fresh_reg();
  const Reg j = b.fresh_reg();
  b.move(i, b.const_val(0));
  const std::uint32_t oh = b.new_block();
  const std::uint32_t opre = b.new_block();
  const std::uint32_t ih = b.new_block();
  const std::uint32_t ib = b.new_block();
  const std::uint32_t olatch = b.new_block();
  const std::uint32_t done = b.new_block();
  b.br(oh);
  b.set_block(oh);
  b.cond_br(b.cmp_lt(i, n), opre, done);
  b.set_block(opre);
  b.move(j, b.const_val(0));
  b.br(ih);
  b.set_block(ih);
  b.cond_br(b.cmp_lt(j, n), ib, olatch);
  b.set_block(ib);
  b.move(j, b.add(j, b.const_val(1)));
  b.br(ih);
  b.set_block(olatch);
  b.move(i, b.add(i, b.const_val(1)));
  b.br(oh);
  b.set_block(done);
  b.ret(i);
  const Function fn = b.take();

  const Cfg cfg(fn);
  const DomTree dom(cfg);
  const auto loops = find_natural_loops(cfg, dom);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].header, oh);  // outermost first
  EXPECT_EQ(loops[0].depth, 1u);
  EXPECT_EQ(loops[1].header, ih);
  EXPECT_EQ(loops[1].depth, 2u);
  EXPECT_EQ(loops[1].preheader, opre);
  EXPECT_TRUE(loops[0].contains(ih));
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(Generator, ModulesVerifyAndExecute) {
  alignas(64) static std::int64_t buffer[1024];
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Module m = generate_module(seed);
    ASSERT_EQ(verify(m), "") << "seed " << seed;
    run_instrumentation_pass(m, {});
    std::memset(buffer, 0, sizeof buffer);
    Interpreter interp;
    const std::int64_t args[] = {
        static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(buffer)),
        19};
    for (const Function& fn : m.functions) {
      const auto res = interp.run(m, fn, args);
      EXPECT_FALSE(res.step_limit_exceeded) << "seed " << seed;
      EXPECT_GT(res.steps, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Pruning passes: static structure
// ---------------------------------------------------------------------------

TEST(Pass, LoopBatchingHoistsInvariantAccesses) {
  Module m = make_loop_module();
  PassOptions opt;
  opt.loop_batching = true;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.loop_batched, 3u);  // two stores + one load hoisted
  EXPECT_EQ(stats.reports_inserted, 3u);
  EXPECT_TRUE(stats.reconciles());

  const Function& fn = m.functions[0];
  // The preheader gained the trip count computation and three kReports.
  std::uint64_t reports = 0;
  for (const Instr& in : fn.blocks[0].instrs) {
    if (in.op == Opcode::kReport) {
      ++reports;
      EXPECT_TRUE(in.instrumented);
      EXPECT_EQ(in.a, 0u);  // based on the buffer argument
    }
  }
  EXPECT_EQ(reports, 3u);
  EXPECT_EQ(verify_function(m, fn), "");
  // Invariant body accesses are unmarked; the induction-dependent store
  // stays instrumented.
  std::uint64_t still_marked = 0;
  for (const Instr& in : fn.blocks[2].instrs) {
    if (is_memory_access(in.op) && in.instrumented) ++still_marked;
  }
  EXPECT_EQ(still_marked, 1u);
}

TEST(Pass, LoopBatchingRejectsConditionalLatch) {
  Module m = make_early_exit_loop_module();
  PassOptions opt;
  opt.loop_batching = true;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.loop_batched, 0u);
  EXPECT_EQ(stats.reports_inserted, 0u);
  EXPECT_TRUE(stats.reconciles());
  // The invariant store stays instrumented in place; no kReport appears.
  for (const BasicBlock& bb : m.functions[0].blocks) {
    for (const Instr& in : bb.instrs) {
      EXPECT_NE(in.op, Opcode::kReport);
      if (in.op == Opcode::kStore && in.a == 0) {
        EXPECT_TRUE(in.instrumented);
      }
    }
  }
}

TEST(Pass, ChainMergingNeverFoldsIntoEntryBlock) {
  Module m = make_entry_backedge_module();
  PassOptions opt;
  opt.dominance_elim = true;
  const PassStats stats = run_instrumentation_pass(m, opt);
  // bb1 -> bb0 must not count as a linear edge, so nothing merges and both
  // loads keep their own runtime calls.
  EXPECT_EQ(stats.dominance_merged, 0u);
  EXPECT_EQ(stats.instrumented_accesses, 2u);
  EXPECT_TRUE(stats.reconciles());
  const Cfg cfg(m.functions[0]);
  EXPECT_FALSE(cfg.linear_edge(1, Cfg::kEntry));
}

TEST(Pass, ChainMergingFoldsAcrossLinearBlocksWithCompensation) {
  // bb0: load [a]; br bb1. bb1: t = a; load [t] (same address, aliased);
  // store [a], v; ret. bb0 -> bb1 is a linear edge, so both the aliased
  // load and the store fold into the first load as +1r +1w.
  Module m;
  {
    FunctionBuilder b("chain", 1);
    const Reg a = b.arg(0);
    (void)b.load(a, 0);
    const std::uint32_t next = b.new_block();
    b.br(next);
    b.set_block(next);
    const Reg t = b.fresh_reg();
    b.move(t, a);
    (void)b.load(t, 0);
    b.store(a, b.const_val(5), 0);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  PassOptions opt;
  opt.dominance_elim = true;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.dominance_merged, 2u);
  EXPECT_EQ(stats.instrumented_accesses, 1u);
  EXPECT_TRUE(stats.reconciles());
  const Instr& kept = m.functions[0].blocks[0].instrs[0];
  ASSERT_EQ(kept.op, Opcode::kLoad);
  EXPECT_TRUE(kept.instrumented);
  EXPECT_EQ(kept.extra_reads, 1u);
  EXPECT_EQ(kept.extra_writes, 1u);
  EXPECT_EQ(verify(m), "");
}

TEST(Pass, WholeFunctionPassesAreOffByDefault) {
  Module m = make_loop_module();
  const PassStats stats = run_instrumentation_pass(m, {});
  EXPECT_EQ(stats.loop_batched, 0u);
  EXPECT_EQ(stats.dominance_merged, 0u);
  EXPECT_EQ(stats.reports_inserted, 0u);
  EXPECT_TRUE(stats.reconciles());
}

// ---------------------------------------------------------------------------
// The headline property: bit-identical reports
// ---------------------------------------------------------------------------

struct RunTotals {
  std::uint64_t calls = 0;
  std::uint64_t delivered = 0;
};

alignas(64) std::int64_t g_buffer[1024];

/// The detector configuration of the report-equivalence runs: sampling
/// 1.0 and prediction off.
RuntimeConfig full_sampling_runtime() {
  RuntimeConfig cfg;
  cfg.tracking_threshold = 1;
  cfg.report_invalidation_threshold = 1;
  cfg.prediction_enabled = false;
  cfg.set_sampling_rate(1.0);
  return cfg;
}

/// A second configuration whose runs cross sampling windows and intervals
/// (3 of every 7 accesses sampled) and fire the prediction hook, which
/// nominates virtual lines mid-run.
RuntimeConfig partial_sampling_runtime() {
  RuntimeConfig cfg;
  cfg.tracking_threshold = 1;
  cfg.prediction_threshold = 12;
  cfg.report_invalidation_threshold = 1;
  cfg.sample_window = 3;
  cfg.sample_interval = 7;
  return cfg;
}

/// One delivery of an interpreted run: `count` accesses in one call.
struct Delivery {
  Address addr;
  std::uint32_t size;
  AccessType type;
  ThreadId tid;
  std::uint64_t count;
};

/// A session over g_buffer with every line pre-escalated (threshold 1: one
/// write creates the tracker), so no later delivery can straddle the
/// tracking boundary.
std::unique_ptr<Session> make_session(const RuntimeConfig& runtime) {
  SessionOptions opts;
  opts.runtime = runtime;
  opts.heap_size = 4 * 1024 * 1024;
  auto session = std::make_unique<Session>(opts);
  std::memset(g_buffer, 0, sizeof g_buffer);
  session->register_global(g_buffer, sizeof g_buffer, "gen_buffer");
  for (std::size_t w = 0; w < 1024; w += 8) {
    session->record(&g_buffer[w], AccessType::kWrite, 0, 8);
  }
  return session;
}

std::string report_json(Session& session) {
  return report_to_json(session.report(), session.runtime().callsites());
}

/// Executes every function of `m` from two alternating logical threads
/// against g_buffer under a deterministic runtime configuration and
/// returns the detector report as JSON. `deliveries`, when given, receives
/// every delivery the interpreter made, batched ones whole.
std::string run_module_report(
    const Module& m, std::int64_t n, RunTotals* totals,
    const RuntimeConfig& runtime = full_sampling_runtime(),
    std::vector<Delivery>* deliveries = nullptr) {
  const auto session = make_session(runtime);
  Interpreter interp(session.get());
  if (deliveries != nullptr) {
    interp.set_delivery_observer([deliveries](Address a, std::uint32_t size,
                                              AccessType type, ThreadId tid,
                                              std::uint64_t count) {
      deliveries->push_back({a, size, type, tid, count});
    });
  }
  const std::int64_t args[] = {
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(g_buffer)),
      n};
  for (int round = 0; round < 4; ++round) {
    for (ThreadId tid = 0; tid < 2; ++tid) {
      for (const Function& fn : m.functions) {
        const auto res = interp.run(m, fn, args, tid);
        EXPECT_FALSE(res.step_limit_exceeded);
        totals->calls += res.runtime_calls;
        totals->delivered += res.accesses_delivered;
      }
    }
  }
  return report_json(*session);
}

/// The report of `deliveries` replayed as single accesses: each batched
/// delivery becomes `count` Session::record calls, the literal loop a
/// batched call must match.
std::string replay_singly(const std::vector<Delivery>& deliveries,
                          const RuntimeConfig& runtime) {
  const auto session = make_session(runtime);
  for (const Delivery& d : deliveries) {
    for (std::uint64_t k = 0; k < d.count; ++k) {
      session->record(reinterpret_cast<void*>(d.addr), d.type, d.tid, d.size);
    }
  }
  return report_json(*session);
}

// At full sampling with prediction off, base and pruned modules report the
// same bytes. The second configuration samples 3 of every 7 accesses and
// runs the predictor. There the passes' reordering shows: loop batching
// moves a loop's invariant accesses into one report, which changes which of
// them a sampling window or the prediction hook sees, so base and pruned
// reports differ even when every batched call is a literal loop. What must
// hold is that the pruned run, whose batched calls retire in closed form
// across windows, intervals and prediction hooks, reports exactly what its
// delivered stream reports as single calls.
TEST(ReportEquivalence, PrunedModulesProduceBitIdenticalReports) {
  std::uint64_t long_runs = 0;
  std::size_t predicted = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Module generated = generate_module(seed);
    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});  // selective per-block dedup only
    PassOptions all;
    all.loop_batching = true;
    all.dominance_elim = true;
    const PassStats pstats = run_instrumentation_pass(pruned, all);
    EXPECT_TRUE(pstats.reconciles()) << "seed " << seed;

    const std::int64_t n = 17 + static_cast<std::int64_t>(seed % 19);
    RunTotals base_totals;
    RunTotals pruned_totals;
    const std::string base_json = run_module_report(base, n, &base_totals);
    const std::string pruned_json =
        run_module_report(pruned, n, &pruned_totals);

    // The detector saw the same multiset of accesses...
    EXPECT_EQ(base_totals.delivered, pruned_totals.delivered)
        << "seed " << seed;
    // ...through no more (usually far fewer) runtime calls...
    EXPECT_LE(pruned_totals.calls, base_totals.calls) << "seed " << seed;
    // ...and concluded exactly the same thing, byte for byte.
    EXPECT_EQ(base_json, pruned_json) << "seed " << seed;

    const RuntimeConfig partial = partial_sampling_runtime();
    std::vector<Delivery> deliveries;
    RunTotals partial_totals;
    const std::string batched_json =
        run_module_report(pruned, n, &partial_totals, partial, &deliveries);
    EXPECT_EQ(partial_totals.delivered, base_totals.delivered)
        << "seed " << seed;
    EXPECT_EQ(batched_json, replay_singly(deliveries, partial))
        << "seed " << seed;
    for (const Delivery& d : deliveries) {
      if (d.count > partial.sample_interval) ++long_runs;
    }
    if (batched_json.find("\"predicted\":true") != std::string::npos) {
      ++predicted;
    }
  }
  // The second configuration crossed intervals inside batched calls and
  // fired the prediction hook.
  EXPECT_GT(long_runs, 0u);
  EXPECT_GT(predicted, 0u);
}

// Direct regressions for the two count-exactness holes the random sweep can
// miss: a conditional latch (early loop exit) and a back-edge into the entry
// block. In both, a wrong prune changes the delivered-access count.
TEST(ReportEquivalence, ConditionalLatchAndEntryBackedgeStayExact) {
  const Module shapes[] = {make_early_exit_loop_module(),
                           make_entry_backedge_module()};
  for (const Module& generated : shapes) {
    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    PassOptions all;
    all.loop_batching = true;
    all.dominance_elim = true;
    run_instrumentation_pass(pruned, all);
    for (const std::int64_t n : {0, 1, 2, 3, 7, 19}) {
      RunTotals bt;
      RunTotals pt;
      const std::string base_json = run_module_report(base, n, &bt);
      const std::string pruned_json = run_module_report(pruned, n, &pt);
      EXPECT_EQ(bt.delivered, pt.delivered)
          << generated.functions[0].name << " n=" << n;
      EXPECT_EQ(base_json, pruned_json)
          << generated.functions[0].name << " n=" << n;
    }
  }
}

TEST(ReportEquivalence, LoopHeavyModulesCutRuntimeCallsByThirtyPercent) {
  GeneratorOptions gopts;
  gopts.segments = 5;
  gopts.accesses_per_block = 4;
  std::uint64_t base_calls = 0;
  std::uint64_t pruned_calls = 0;
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    const Module generated = generate_module(seed, gopts);
    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    PassOptions all;
    all.loop_batching = true;
    all.dominance_elim = true;
    run_instrumentation_pass(pruned, all);
    RunTotals bt;
    RunTotals pt;
    (void)run_module_report(base, 64, &bt);
    (void)run_module_report(pruned, 64, &pt);
    EXPECT_EQ(bt.delivered, pt.delivered) << "seed " << seed;
    base_calls += bt.calls;
    pruned_calls += pt.calls;
  }
  ASSERT_GT(base_calls, 0u);
  EXPECT_LE(pruned_calls * 10, base_calls * 7)
      << "expected >= 30% fewer runtime calls on loop-heavy modules, got "
      << base_calls << " -> " << pruned_calls;
}

}  // namespace
}  // namespace pred::ir
