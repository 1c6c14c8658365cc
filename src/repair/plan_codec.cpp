#include "repair/plan_codec.hpp"

#include <cstdio>

#include "trace/wire_format.hpp"

namespace pred::repair {

namespace {

// Field ids. Top level:
constexpr std::uint16_t kFOriginUid = 1;
constexpr std::uint16_t kFEntry = 2;
// Entry:
constexpr std::uint16_t kFIsGlobal = 1;
constexpr std::uint16_t kFSiteKey = 2;
constexpr std::uint16_t kFAction = 3;
constexpr std::uint16_t kFPadTo = 4;
constexpr std::uint16_t kFAlignment = 5;
constexpr std::uint16_t kFSlotStride = 6;
constexpr std::uint16_t kFObjectSize = 7;
constexpr std::uint16_t kFExpected = 8;
constexpr std::uint16_t kFEvidence = 9;
// Evidence:
constexpr std::uint16_t kFEvOffset = 1;
constexpr std::uint16_t kFEvOwner = 2;
constexpr std::uint16_t kFEvWrites = 3;

std::string encode_evidence(const OffsetEvidence& ev) {
  std::string out;
  wire::FieldWriter w(&out);
  w.u64(kFEvOffset, ev.offset);
  w.u64(kFEvOwner, ev.owner);
  w.u64(kFEvWrites, ev.writes);
  return out;
}

std::string encode_entry(const PlanEntry& e) {
  std::string out;
  wire::FieldWriter w(&out);
  w.u64(kFIsGlobal, e.is_global ? 1 : 0);
  w.str(kFSiteKey, e.site_key);
  w.u64(kFAction, static_cast<std::uint64_t>(e.action));
  w.u64(kFPadTo, e.pad_to);
  w.u64(kFAlignment, e.alignment);
  w.u64(kFSlotStride, e.slot_stride);
  w.u64(kFObjectSize, e.object_size);
  w.u64(kFExpected, e.expected_eliminated);
  for (const OffsetEvidence& ev : e.evidence) {
    w.bytes(kFEvidence, encode_evidence(ev));
  }
  return out;
}

bool decode_evidence(std::string_view bytes, OffsetEvidence* ev) {
  wire::FieldReader r(bytes);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFEvOffset: ok = f->read_u64(&ev->offset); break;
      case kFEvOwner: ok = f->read_u64(&ev->owner); break;
      case kFEvWrites: ok = f->read_u64(&ev->writes); break;
      default: break;  // field from a newer producer
    }
    if (!ok) return false;
  }
  return !r.malformed();
}

/// Decodes one entry. `*known` is false (without error) when the entry's
/// action is from a newer producer — the caller skips it.
bool decode_entry(std::string_view bytes, PlanEntry* e, bool* known) {
  *known = true;
  std::uint64_t action = static_cast<std::uint64_t>(PlanAction::kAlignStart);
  wire::FieldReader r(bytes);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFIsGlobal: ok = f->read_u64(&e->is_global); break;
      case kFSiteKey: e->site_key.assign(f->bytes); break;
      case kFAction: ok = f->read_u64(&action); break;
      case kFPadTo: ok = f->read_u64(&e->pad_to); break;
      case kFAlignment: ok = f->read_u64(&e->alignment); break;
      case kFSlotStride: ok = f->read_u64(&e->slot_stride); break;
      case kFObjectSize: ok = f->read_u64(&e->object_size); break;
      case kFExpected: ok = f->read_u64(&e->expected_eliminated); break;
      case kFEvidence: {
        OffsetEvidence ev;
        if (!decode_evidence(f->bytes, &ev)) return false;
        e->evidence.push_back(ev);
        break;
      }
      default: break;
    }
    if (!ok) return false;
  }
  if (r.malformed()) return false;
  if (action < static_cast<std::uint64_t>(PlanAction::kPadSlots) ||
      action > static_cast<std::uint64_t>(PlanAction::kSplitFields)) {
    *known = false;  // a future action this consumer cannot apply
    return true;
  }
  e->action = static_cast<PlanAction>(action);
  return true;
}

}  // namespace

std::string encode_plan_frame(const RepairPlan& plan) {
  std::string payload;
  wire::FieldWriter w(&payload);
  w.u64(kFOriginUid, plan.origin_uid);
  for (const PlanEntry& e : plan.entries) {
    w.bytes(kFEntry, encode_entry(e));
  }
  return wire::encode_frame(wire::FrameType::kRepairPlan, payload);
}

bool decode_plan_payload(std::string_view payload, RepairPlan* out) {
  RepairPlan plan;
  wire::FieldReader r(payload);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFOriginUid: ok = f->read_u64(&plan.origin_uid); break;
      case kFEntry: {
        PlanEntry e;
        bool known = true;
        if (!decode_entry(f->bytes, &e, &known)) return false;
        if (known) plan.entries.push_back(std::move(e));
        break;
      }
      default: break;  // top-level field from a newer producer
    }
    if (!ok) return false;
  }
  if (r.malformed()) return false;
  *out = std::move(plan);
  return true;
}

bool save_plan_file(const std::string& path, const RepairPlan& plan) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string frame = encode_plan_frame(plan);
  const bool ok = std::fwrite(frame.data(), 1, frame.size(), f) ==
                  frame.size();
  return std::fclose(f) == 0 && ok;
}

bool load_plan_file(const std::string& path, RepairPlan* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string bytes;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    bytes.append(buf, n);
  }
  std::fclose(f);

  wire::Frame frame;
  std::size_t consumed = 0;
  if (wire::parse_frame(bytes, &frame, &consumed) != wire::FrameError::kOk ||
      frame.type != wire::FrameType::kRepairPlan) {
    return false;
  }
  return decode_plan_payload(frame.payload, out);
}

}  // namespace pred::repair
