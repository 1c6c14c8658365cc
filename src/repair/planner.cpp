#include "repair/planner.hpp"

#include <algorithm>
#include <cinttypes>

#include "common/format.hpp"

namespace pred::repair {

namespace {

std::uint64_t round_up_to(std::uint64_t v, std::uint64_t unit) {
  if (unit == 0) return v;
  return (v + unit - 1) / unit * unit;
}

const ObjectFinding* finding_for(const Report& report, Address start) {
  for (const ObjectFinding& f : report.findings) {
    if (f.object.start == start) return &f;
  }
  return nullptr;
}

/// Word evidence: in-line offsets with owner and write heat, hottest first.
std::vector<OffsetEvidence> gather_evidence(const ObjectFinding& f,
                                            const PlannerOptions& options) {
  std::vector<OffsetEvidence> ev;
  for (const LineFinding& lf : f.lines) {
    for (const WordReport& w : lf.words) {
      OffsetEvidence e;
      e.offset = static_cast<std::uint64_t>(w.address % options.line_size);
      e.owner = w.shared ? kSharedOwner : static_cast<std::uint32_t>(w.owner);
      e.writes = w.writes;
      ev.push_back(e);
    }
  }
  std::sort(ev.begin(), ev.end(),
            [](const OffsetEvidence& a, const OffsetEvidence& b) {
              return a.writes > b.writes ||
                     (a.writes == b.writes && a.offset < b.offset);
            });
  if (ev.size() > options.max_evidence) ev.resize(options.max_evidence);
  return ev;
}

}  // namespace

RepairPlan compile_plan(const Report& report,
                        const std::vector<FixSuggestion>& suggestions,
                        const CallsiteTable& callsites,
                        const PlannerOptions& options) {
  RepairPlan plan;
  for (const FixSuggestion& s : suggestions) {
    // True sharing has no layout remedy; there is nothing to apply.
    if (s.kind == FixKind::kReduceWriteSharing) continue;

    PlanEntry e;
    e.is_global = s.object.is_global;
    if (e.is_global) {
      if (s.object.name.empty()) continue;
      e.site_key = s.object.name;
    } else {
      if (s.object.callsite == kNoCallsite) continue;
      e.site_key = join_frames(callsites.get(s.object.callsite).frames);
      if (e.site_key.empty()) continue;
    }

    e.slot_stride = s.slot_stride;
    e.object_size = s.object.size;
    e.expected_eliminated = s.eliminated_invalidations;
    e.alignment = options.line_size;
    switch (s.kind) {
      case FixKind::kPadPerThreadSlots:
        e.action = PlanAction::kPadSlots;
        e.pad_to = round_up_to(std::max<std::uint64_t>(s.slot_stride, 1),
                               options.line_size);
        break;
      case FixKind::kWidenElements:
        e.action = PlanAction::kPadChunks;
        e.pad_to = round_up_to(std::max<std::uint64_t>(s.slot_stride, 1),
                               options.line_size);
        break;
      case FixKind::kSeparateHotFields:
        e.action = PlanAction::kSplitFields;
        e.pad_to = options.line_size;
        break;
      case FixKind::kAlignObject:
        e.action = PlanAction::kAlignStart;
        e.pad_to = options.line_size;
        break;
      case FixKind::kReduceWriteSharing:
        continue;  // unreachable (filtered above)
    }

    if (const ObjectFinding* f = finding_for(report, s.object.start)) {
      e.evidence = gather_evidence(*f, options);
    }

    RepairPlan one;
    one.entries.push_back(std::move(e));
    merge_plans(plan, one);
  }
  return plan;
}

RepairPlan compile_plan(const ir::StaticFsReport& report,
                        const std::vector<StaticRegion>& regions,
                        const PlannerOptions& options) {
  RepairPlan plan;
  for (std::size_t g = 0; g < regions.size(); ++g) {
    if (regions[g].name.empty()) continue;

    // Non-latent false-sharing lines of this region at the base geometry,
    // already score-descending (report order).
    std::vector<const ir::PredictedLine*> lines;
    for (const ir::PredictedLine& l : report.lines) {
      if (l.region == g && !l.latent &&
          l.line_size == options.line_size && l.false_sharing) {
        lines.push_back(&l);
      }
    }
    if (lines.empty()) continue;  // true sharing only: no layout remedy

    PlanEntry e;
    e.is_global = regions[g].is_global;
    e.site_key = regions[g].name;
    e.slot_stride =
        g < report.region_slot_stride.size() ? report.region_slot_stride[g]
                                             : 0;
    e.object_size =
        g < report.region_extent.size() ? report.region_extent[g] : 0;
    e.alignment = options.line_size;
    if (e.slot_stride > 0) {
      e.action = PlanAction::kPadSlots;
      e.pad_to = round_up_to(e.slot_stride, options.line_size);
    } else {
      e.action = PlanAction::kAlignStart;
      e.pad_to = options.line_size;
    }
    for (const ir::PredictedLine* l : lines) {
      e.expected_eliminated += l->ww_weight + l->wr_weight;
      for (const ir::RoleSpan& s : l->spans) {
        OffsetEvidence ev;
        ev.offset = s.lo;  // span bounds are already line-relative
        ev.owner = s.role;
        ev.writes = s.write_weight;
        e.evidence.push_back(ev);
      }
    }
    std::sort(e.evidence.begin(), e.evidence.end(),
              [](const OffsetEvidence& a, const OffsetEvidence& b) {
                return a.writes > b.writes ||
                       (a.writes == b.writes && a.offset < b.offset);
              });
    if (e.evidence.size() > options.max_evidence) {
      e.evidence.resize(options.max_evidence);
    }

    RepairPlan one;
    one.entries.push_back(std::move(e));
    merge_plans(plan, one);
  }
  return plan;
}

std::string format_plan(const RepairPlan& plan) {
  if (plan.empty()) return "repair plan: empty (nothing to apply)\n";
  std::string out;
  append_fmt(out, "repair plan: %zu entr%s (origin session %" PRIu64 ")\n",
             plan.entries.size(), plan.entries.size() == 1 ? "y" : "ies",
             plan.origin_uid);
  int rank = 1;
  for (const PlanEntry& e : plan.entries) {
    append_fmt(out, "  #%d [%s] %s '%s'\n", rank++, to_string(e.action),
               e.is_global ? "global" : "heap callsite", e.site_key.c_str());
    append_fmt(out,
               "     pad to %" PRIu64 " B, align %" PRIu64
               " B (packed stride %" PRIu64 " B, object %" PRIu64
               " B), ~%" PRIu64 " invalidations expected eliminated\n",
               e.pad_to, e.alignment, e.slot_stride, e.object_size,
               e.expected_eliminated);
    for (const OffsetEvidence& ev : e.evidence) {
      if (ev.owner == kSharedOwner) {
        append_fmt(out, "     evidence: line offset %" PRIu64
                        " shared, %" PRIu64 " write(s)\n",
                   ev.offset, ev.writes);
      } else {
        append_fmt(out, "     evidence: line offset %" PRIu64
                        " owned by T%u, %" PRIu64 " write(s)\n",
                   ev.offset, ev.owner, ev.writes);
      }
    }
  }
  return out;
}

}  // namespace pred::repair
