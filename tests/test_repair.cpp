// Tests for the closed-loop repair subsystem (src/repair/): lossless plan
// codec round-trips with forward compatibility and corruption rejection,
// plan compilation from advisor output, both plan backends (allocator
// padding and the IR rewrite) in isolation, the full detect -> plan ->
// apply -> verify loop on the planted targets, collector plan merging, and
// the stale-socket reclaim in listen_unix.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "advice/fix_advisor.hpp"
#include "api/predator.hpp"
#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "instrument/analysis/generator.hpp"
#include "instrument/interp.hpp"
#include "instrument/pass.hpp"
#include "repair/plan.hpp"
#include "repair/plan_codec.hpp"
#include "repair/planner.hpp"
#include "repair/targets.hpp"
#include "repair/verifier.hpp"
#include "trace/wire_format.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

repair::RepairPlan sample_plan() {
  repair::RepairPlan plan;
  plan.origin_uid = 0xfeedull;

  repair::PlanEntry heap;
  heap.is_global = false;
  heap.site_key = "pool.c:42|main.c:7";
  heap.action = repair::PlanAction::kPadSlots;
  heap.pad_to = 128;
  heap.alignment = 64;
  heap.slot_stride = 24;
  heap.object_size = 24;
  heap.expected_eliminated = 4321;
  heap.evidence.push_back({0, 3, 900});
  heap.evidence.push_back({24, repair::kSharedOwner, 555});
  plan.entries.push_back(heap);

  repair::PlanEntry global;
  global.is_global = true;
  global.site_key = "grid \"quoted\"";
  global.action = repair::PlanAction::kSplitFields;
  global.pad_to = 64;
  global.alignment = 64;
  global.slot_stride = 0;
  global.object_size = 512;
  global.expected_eliminated = 77;
  plan.entries.push_back(global);
  return plan;
}

// Unwraps the frame layer and hands back the verified payload.
std::string plan_frame_payload(const std::string& frame_bytes) {
  wire::Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::parse_frame(frame_bytes, &frame, &consumed),
            wire::FrameError::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kRepairPlan);
  EXPECT_EQ(consumed, frame_bytes.size());
  return frame.payload;
}

TEST(PlanCodec, RoundTripPreservesEverything) {
  const repair::RepairPlan plan = sample_plan();
  repair::RepairPlan decoded;
  ASSERT_TRUE(repair::decode_plan_payload(
      plan_frame_payload(repair::encode_plan_frame(plan)), &decoded));
  EXPECT_EQ(decoded, plan);
}

TEST(PlanCodec, EmptyPlanRoundTrips) {
  repair::RepairPlan decoded;
  ASSERT_TRUE(repair::decode_plan_payload(
      plan_frame_payload(repair::encode_plan_frame(repair::RepairPlan{})),
      &decoded));
  EXPECT_EQ(decoded, repair::RepairPlan{});
}

TEST(PlanCodec, SkipsFieldsFromNewerClients) {
  // A future planner appends unknown top-level fields and an entry with an
  // action this build does not know. Decode must skip both and still
  // recover today's plan exactly.
  const repair::RepairPlan plan = sample_plan();
  std::string payload =
      plan_frame_payload(repair::encode_plan_frame(plan));

  wire::FieldWriter top(&payload);
  top.u64(600, 123456789);
  top.str(601, "directive from the future");
  std::string entry;
  wire::FieldWriter ew(&entry);
  ew.u64(1, 1);               // is_global
  ew.str(2, "future_site");   // site_key
  ew.u64(3, 99);              // action nobody implements yet
  top.bytes(2, entry);

  repair::RepairPlan decoded;
  ASSERT_TRUE(repair::decode_plan_payload(payload, &decoded));
  EXPECT_EQ(decoded, plan);
}

TEST(PlanCodec, RejectsMalformedPayload) {
  std::string payload =
      plan_frame_payload(repair::encode_plan_frame(sample_plan()));
  payload.resize(payload.size() - 5);  // tear the final field
  repair::RepairPlan decoded;
  EXPECT_FALSE(repair::decode_plan_payload(payload, &decoded));
}

// A known u64 field (the origin uid, the payload's first field) rewritten
// as kBytes, or as a u64 four bytes wide, rejects the payload instead of
// decoding as 0.
TEST(PlanCodec, RejectsMistypedKnownFields) {
  const std::string payload =
      plan_frame_payload(repair::encode_plan_frame(sample_plan()));
  repair::RepairPlan decoded;
  ASSERT_TRUE(repair::decode_plan_payload(payload, &decoded));
  std::string as_bytes = payload;
  as_bytes[2] = static_cast<char>(wire::FieldKind::kBytes);
  EXPECT_FALSE(repair::decode_plan_payload(as_bytes, &decoded));
  std::string narrow = payload;
  narrow[4] = 4;  // value length 8 -> 4
  narrow.erase(8 + 4, 4);
  EXPECT_FALSE(repair::decode_plan_payload(narrow, &decoded));
}

TEST(PlanCodec, FrameCorruptionIsCaught) {
  std::string frame = repair::encode_plan_frame(sample_plan());
  frame[wire::kFrameHeaderSize + 3] ^= 0x40;  // flip a payload bit
  wire::Frame out;
  std::size_t consumed = 0;
  EXPECT_NE(wire::parse_frame(frame, &out, &consumed),
            wire::FrameError::kOk);
}

TEST(PlanCodec, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/predator_test.plan";
  const repair::RepairPlan plan = sample_plan();
  ASSERT_TRUE(repair::save_plan_file(path, plan));
  repair::RepairPlan loaded;
  ASSERT_TRUE(repair::load_plan_file(path, &loaded));
  EXPECT_EQ(loaded, plan);
  ::unlink(path.c_str());
  EXPECT_FALSE(repair::load_plan_file(path, &loaded));  // gone again
}

TEST(Planner, CompilesPadSlotsFromCounterPoolAdvice) {
  // Detect the planted heap defect for real, then check what the planner
  // lowers the advice to: one machine-applicable pad_slots entry keyed by
  // the allocation callsite, with line-offset evidence.
  const repair::RepairTarget* target =
      repair::find_repair_target("counter_pool");
  ASSERT_NE(target, nullptr);
  Session session(repair::detection_session_options());
  repair::RunResult run = target->run(session, nullptr, 4, 1);
  wl::replay_into_session(session, run.traces, 1);
  const Report report = session.report();

  const repair::RepairPlan plan = repair::compile_plan(
      report, advise(report), session.runtime().callsites());
  ASSERT_EQ(plan.entries.size(), 1u);
  const repair::PlanEntry& e = plan.entries[0];
  EXPECT_FALSE(e.is_global);
  EXPECT_EQ(e.site_key, "counter_pool.c:42");
  EXPECT_EQ(e.action, repair::PlanAction::kPadSlots);
  EXPECT_EQ(e.pad_to, 64u);
  EXPECT_EQ(e.slot_stride, 16u);
  EXPECT_GT(e.expected_eliminated, 0u);
  ASSERT_FALSE(e.evidence.empty());
  for (std::size_t i = 1; i < e.evidence.size(); ++i) {
    EXPECT_GE(e.evidence[i - 1].writes, e.evidence[i].writes);
  }
  for (const repair::OffsetEvidence& ev : e.evidence) {
    EXPECT_LT(ev.offset, 64u);
  }
}

TEST(Planner, SkipsUnkeyedAndUnloweredSuggestions) {
  Report report;
  CallsiteTable callsites;
  std::vector<FixSuggestion> suggestions;

  FixSuggestion unkeyed;  // heap object with no callsite: no stable identity
  unkeyed.kind = FixKind::kPadPerThreadSlots;
  unkeyed.object.callsite = kNoCallsite;
  suggestions.push_back(unkeyed);

  FixSuggestion unlowered;  // behavioral advice has no layout directive
  unlowered.kind = FixKind::kReduceWriteSharing;
  unlowered.object.is_global = true;
  unlowered.object.name = "shared_flag";
  suggestions.push_back(unlowered);

  EXPECT_TRUE(
      repair::compile_plan(report, suggestions, callsites).empty());
}

TEST(AllocatorBackend, PadsOnlyThePlannedCallsite) {
  Session session(repair::detection_session_options());
  const CallsiteId planned = session.intern_frames({"hot.c:10"});
  const CallsiteId other = session.intern_frames({"cold.c:20"});

  auto plan = std::make_shared<repair::RepairPlan>();
  repair::PlanEntry e;
  e.site_key = "hot.c:10";
  e.action = repair::PlanAction::kPadSlots;
  e.pad_to = 64;
  plan->entries.push_back(e);
  session.allocator().install_repair_plan(plan);

  void* a = session.alloc(16, planned);
  void* b = session.alloc(16, planned);
  void* c = session.alloc(16, other);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);

  // Padded requests land in the 64-byte size class, so they are also
  // naturally line-aligned; the unplanned site keeps its packed 16 bytes.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  const auto obj_a =
      session.runtime().objects().find(reinterpret_cast<Address>(a));
  const auto obj_c =
      session.runtime().objects().find(reinterpret_cast<Address>(c));
  ASSERT_TRUE(obj_a.has_value());
  ASSERT_TRUE(obj_c.has_value());
  EXPECT_EQ(obj_a->size, 64u);
  EXPECT_EQ(obj_c->size, 16u);

  const PredatorAllocator::Stats st = session.allocator().stats();
  EXPECT_EQ(st.repairs_applied, 2u);
  EXPECT_EQ(st.repair_padding_bytes, 2u * 48u);
}

TEST(RewriteBackend, RetargetsPlantedSlotsAndPreservesResults) {
  ir::GeneratorOptions gopts;
  gopts.segments = 1;
  gopts.allow_intrinsics = false;
  gopts.planted_slots = 4;
  gopts.planted_stride = 16;
  gopts.planted_iters = 8;
  const ir::Module packed = ir::generate_module(0x5105u, gopts);

  ir::Module padded = packed;
  ir::RepairLayout layout;
  layout.base_arg = 0;
  layout.region_offset = 0;
  layout.extent = 4 * 16;
  layout.slot_stride = 16;
  layout.pad_to = 64;
  const ir::RepairRewriteStats rs = ir::apply_repair_rewrite(padded, layout);
  EXPECT_GT(rs.retargeted, 0u);
  EXPECT_EQ(rs.straddling, 0u);

  std::vector<std::int64_t> packed_buf(8, 0);    // 4 slots * 16 B
  std::vector<std::int64_t> padded_buf(32, 0);   // 4 slots * 64 B
  for (std::uint32_t t = 0; t < 4; ++t) {
    const std::string want = "slot" + std::to_string(t);
    const ir::Function* pf = nullptr;
    const ir::Function* qf = nullptr;
    for (const ir::Function& f : packed.functions) {
      if (f.name == want) pf = &f;
    }
    for (const ir::Function& f : padded.functions) {
      if (f.name == want) qf = &f;
    }
    ASSERT_NE(pf, nullptr);
    ASSERT_NE(qf, nullptr);

    ir::Interpreter packed_interp(nullptr);
    const std::int64_t packed_args[2] = {
        reinterpret_cast<std::intptr_t>(packed_buf.data()), 8};
    const ir::ExecResult pr = packed_interp.run(packed, *pf, packed_args, t);

    // The rewritten kernel must touch only its own padded slot ...
    const Address base = reinterpret_cast<Address>(padded_buf.data());
    ir::Interpreter padded_interp(nullptr);
    padded_interp.set_touch_observer(
        [&](Address a, std::uint32_t width, AccessType, ThreadId) {
          EXPECT_GE(a, base + t * 64u);
          EXPECT_LE(a + width, base + t * 64u + 16u);
        });
    const std::int64_t padded_args[2] = {
        reinterpret_cast<std::intptr_t>(padded_buf.data()), 32};
    const ir::ExecResult qr = padded_interp.run(padded, *qf, padded_args, t);

    // ... and compute exactly what the packed layout computed.
    ASSERT_FALSE(pr.step_limit_exceeded);
    ASSERT_FALSE(qr.step_limit_exceeded);
    EXPECT_EQ(qr.return_value, pr.return_value);
  }
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      EXPECT_EQ(padded_buf[t * 8 + w], packed_buf[t * 2 + w]);
    }
  }
}

// The tentpole acceptance: both planted targets — one per backend — must
// close the loop with >= 90% simulated invalidation drop, no surviving
// finding on the repaired sites, and a bit-identical checksum.
TEST(ClosedLoop, CounterPoolIsRepaired) {
  const repair::RepairTarget* target =
      repair::find_repair_target("counter_pool");
  ASSERT_NE(target, nullptr);
  const repair::RepairOutcome out = repair::run_repair_loop(*target);
  EXPECT_GT(out.baseline_invalidations, 0u);
  EXPECT_GE(out.drop_pct(), 0.9);
  EXPECT_EQ(out.repaired_site_findings, 0u);
  EXPECT_TRUE(out.checksums_match());
  EXPECT_TRUE(out.repaired(0.9));
}

TEST(ClosedLoop, GlobalGridIsRepaired) {
  const repair::RepairTarget* target =
      repair::find_repair_target("global_grid");
  ASSERT_NE(target, nullptr);
  const repair::RepairOutcome out = repair::run_repair_loop(*target);
  EXPECT_GT(out.baseline_invalidations, 0u);
  EXPECT_GE(out.drop_pct(), 0.9);
  EXPECT_EQ(out.repaired_site_findings, 0u);
  EXPECT_TRUE(out.checksums_match());
  EXPECT_TRUE(out.repaired(0.9));
}

TEST(CollectorPlans, MergesIngestedPlansPerSite) {
  Collector collector;

  repair::RepairPlan weak;
  weak.origin_uid = 11;
  repair::PlanEntry e;
  e.site_key = "hot.c:10";
  e.action = repair::PlanAction::kPadSlots;
  e.pad_to = 64;
  e.expected_eliminated = 10;
  weak.entries.push_back(e);

  repair::RepairPlan strong = weak;
  strong.origin_uid = 22;
  strong.entries[0].pad_to = 128;
  strong.entries[0].expected_eliminated = 500;
  repair::PlanEntry other;
  other.is_global = true;
  other.site_key = "grid";
  strong.entries.push_back(other);

  ASSERT_TRUE(collector.ingest_frame(repair::encode_plan_frame(weak)));
  ASSERT_TRUE(collector.ingest_frame(repair::encode_plan_frame(strong)));
  EXPECT_EQ(collector.stats().plans_ingested, 2u);

  const repair::RepairPlan merged = collector.merged_plan();
  ASSERT_EQ(merged.entries.size(), 2u);
  const repair::PlanEntry* site = merged.find(false, "hot.c:10");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->pad_to, 128u);  // best-evidenced directive wins
  EXPECT_NE(merged.find(true, "grid"), nullptr);
}

TEST(Transport, ReclaimsStaleSocketPath) {
  const std::string path = testing::TempDir() + "/predator_stale.sock";
  ::unlink(path.c_str());

  // A crashed daemon leaves a bound-but-dead socket inode behind.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(dead, 0);
  ASSERT_EQ(::bind(dead, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(dead);  // path persists; connect() would now be refused

  const int fd = listen_unix(path);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
  ::unlink(path.c_str());
}

TEST(Transport, RefusesToUnseatLiveListener) {
  const std::string path = testing::TempDir() + "/predator_live.sock";
  ::unlink(path.c_str());
  const int first = listen_unix(path);
  ASSERT_GE(first, 0);
  EXPECT_LT(listen_unix(path), 0);  // someone is serving here
  // The live listener must still be reachable afterwards.
  const int probe = connect_unix(path);
  EXPECT_GE(probe, 0);
  if (probe >= 0) ::close(probe);
  ::close(first);
  ::unlink(path.c_str());
}

TEST(Transport, RefusesNonSocketPath) {
  const std::string path = testing::TempDir() + "/predator_not_a.sock";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("precious user data", f);
  std::fclose(f);

  EXPECT_LT(listen_unix(path), 0);
  std::FILE* still = std::fopen(path.c_str(), "rb");  // file untouched
  EXPECT_NE(still, nullptr);
  if (still != nullptr) std::fclose(still);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace pred
