#include "report_io/report_diff.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/format.hpp"

namespace pred {

const char* to_string(DiffStatus status) {
  switch (status) {
    case DiffStatus::kFixed: return "FIXED";
    case DiffStatus::kNew: return "NEW";
    case DiffStatus::kImproved: return "improved";
    case DiffStatus::kRegressed: return "REGRESSED";
    case DiffStatus::kUnchanged: return "unchanged";
  }
  return "?";
}

std::string finding_identity(const ObjectFinding& finding,
                             const CallsiteTable& callsites) {
  if (finding.object.is_global && !finding.object.name.empty()) {
    return "global:" + finding.object.name;
  }
  if (finding.object.callsite != kNoCallsite) {
    std::string id = "heap:";
    for (const auto& frame : callsites.get(finding.object.callsite).frames) {
      id += frame;
      id += '|';
    }
    return id;
  }
  // Unattributed: fall back to the line offset within its region — stable
  // for our fixed-base heap, best-effort elsewhere.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "line:%" PRIxPTR,
                finding.object.start / 64);
  return buf;
}

namespace {

struct Side {
  std::uint64_t impact = 0;
  bool observed = false;
  bool present = false;
  SharingKind kind = SharingKind::kNone;
};

void collect(const Report& report, const CallsiteTable& callsites,
             const DiffOptions& options,
             std::map<std::string, Side>* out, bool after) {
  for (const ObjectFinding& f : report.findings) {
    if (!f.is_false_sharing() && !options.include_true_sharing) continue;
    Side& side = (*out)[finding_identity(f, callsites)];
    // Several physical objects can share an identity (same callsite):
    // aggregate them — that is also what a human reading the report does.
    side.present = true;
    side.impact += f.impact();
    side.observed |= f.observed;
    if (side.kind == SharingKind::kNone) side.kind = f.kind;
    (void)after;
  }
}

}  // namespace

ReportDiff diff_reports(const Report& before, const CallsiteTable& cs_before,
                        const Report& after, const CallsiteTable& cs_after,
                        const DiffOptions& options) {
  std::map<std::string, Side> lhs;
  std::map<std::string, Side> rhs;
  collect(before, cs_before, options, &lhs, false);
  collect(after, cs_after, options, &rhs, true);

  ReportDiff diff;
  std::map<std::string, std::pair<Side, Side>> merged;
  for (const auto& [id, side] : lhs) merged[id].first = side;
  for (const auto& [id, side] : rhs) merged[id].second = side;

  for (const auto& [id, pair] : merged) {
    const Side& b = pair.first;
    const Side& a = pair.second;
    FindingDiff entry;
    entry.identity = id;
    entry.impact_before = b.impact;
    entry.impact_after = a.impact;
    entry.was_observed = b.observed;
    entry.now_observed = a.observed;
    entry.kind = a.present ? a.kind : b.kind;

    if (b.present && !a.present) {
      entry.status = DiffStatus::kFixed;
      ++diff.fixed;
    } else if (!b.present && a.present) {
      entry.status = DiffStatus::kNew;
      ++diff.fresh;
    } else {
      const double lo = static_cast<double>(b.impact) *
                        (1.0 - options.noise_fraction);
      const double hi = static_cast<double>(b.impact) *
                        (1.0 + options.noise_fraction);
      if (static_cast<double>(a.impact) > hi) {
        entry.status = DiffStatus::kRegressed;
        ++diff.regressed;
      } else if (static_cast<double>(a.impact) < lo) {
        entry.status = DiffStatus::kImproved;
      } else {
        entry.status = DiffStatus::kUnchanged;
      }
    }
    diff.entries.push_back(std::move(entry));
  }

  // Regressions and new findings first, then by after-impact.
  std::sort(diff.entries.begin(), diff.entries.end(),
            [](const FindingDiff& x, const FindingDiff& y) {
              auto sev = [](const FindingDiff& d) {
                switch (d.status) {
                  case DiffStatus::kRegressed: return 0;
                  case DiffStatus::kNew: return 1;
                  case DiffStatus::kUnchanged: return 2;
                  case DiffStatus::kImproved: return 3;
                  case DiffStatus::kFixed: return 4;
                }
                return 5;
              };
              if (sev(x) != sev(y)) return sev(x) < sev(y);
              return x.impact_after > y.impact_after;
            });
  return diff;
}

std::string format_diff(const ReportDiff& diff) {
  if (diff.entries.empty()) {
    return "No false sharing findings on either side.\n";
  }
  std::string out;
  for (const FindingDiff& e : diff.entries) {
    append_fmt(out, "[%-9s] %-60s  impact %" PRIu64 " -> %" PRIu64 "%s\n",
               to_string(e.status), e.identity.c_str(), e.impact_before,
               e.impact_after,
               e.was_observed && !e.now_observed && e.impact_after > 0
                   ? "  (now latent only)"
                   : "");
  }
  append_fmt(out, "summary: %zu fixed, %zu new, %zu regressed\n", diff.fixed,
             diff.fresh, diff.regressed);
  return out;
}

}  // namespace pred
