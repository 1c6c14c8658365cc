// Monitor snapshots: a walk of the runtime's trackers and virtual lines,
// attribution of each tracked line to its object, the top-K ranking and the
// per-callsite rollup, and the text rendering.
#include "monitor/monitor.hpp"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <optional>
#include <utility>

#include "common/format.hpp"
#include "runtime/runtime.hpp"

namespace pred {

namespace {

/// One tracked line's counts, as read from its tracker.
struct LineCounts {
  Address line_start = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t samples = 0;
  std::uint64_t sample_writes = 0;
  std::uint64_t predictions = 0;
};

/// The object holding the line's start, or else its last byte (an object
/// may start mid-line).
std::optional<ObjectInfo> object_of(const Runtime& rt, Address line_start) {
  auto obj = rt.objects().find(line_start);
  if (!obj) {
    obj = rt.objects().find(line_start + rt.config().geometry.line_size - 1);
  }
  return obj;
}

/// A global's name, or the innermost frame of a heap object's callsite.
std::string label_of(const Runtime& rt, const ObjectInfo& obj) {
  if (obj.is_global) return obj.name;
  if (obj.callsite == kNoCallsite) return {};
  const Callsite& cs = rt.callsites().get(obj.callsite);
  return cs.frames.empty() ? std::string() : cs.frames.back();
}

}  // namespace

Monitor::Monitor(const Runtime& runtime, MonitorConfig config)
    : runtime_(&runtime), config_(config) {}

MonitorSnapshot Monitor::snapshot() {
  // The report() contract: publish the calling thread's staged write
  // counters first (this can escalate lines), so everything the caller did
  // program-order-before this call is in the walk below.
  flush_staged_writes();
  std::lock_guard<std::mutex> lk(mu_);
  const Runtime& rt = *runtime_;
  const bool predicting = rt.config().prediction_enabled;

  MonitorSnapshot snap;
  snap.sequence = ++sequence_;
  snap.aggregation_passes = sequence_;
  std::vector<LineCounts> lines;
  rt.for_each_region([&](const ShadowSpace& region) {
    region.for_each_tracker([&](std::size_t idx, const CacheTracker* t) {
      const CacheTracker::Counts counts = t->counts();
      LineCounts& c = lines.emplace_back();
      c.line_start = region.line_start(idx);
      c.invalidations = counts.invalidations;
      c.sample_writes = counts.sampled_writes;
      c.samples = counts.sampled_accesses();
      c.predictions = predicting && t->prediction_decided() ? 1 : 0;
    });
  });
  rt.for_each_virtual_line(
      [&](const VirtualLineTracker&) { ++snap.virtual_lines; });

  // Totals and the per-callsite rollup over every tracked line (globals
  // keyed by name under kNoCallsite).
  std::map<std::pair<CallsiteId, std::string>, MonitorSnapshot::CallsiteEntry>
      by_site;
  for (const LineCounts& c : lines) {
    snap.invalidations += c.invalidations;
    snap.samples += c.samples;
    snap.predictions += c.predictions;
    const auto obj = object_of(rt, c.line_start);
    if (!obj) continue;
    MonitorSnapshot::CallsiteEntry& ce = by_site[
        {obj->callsite,
         obj->callsite == kNoCallsite ? obj->name : std::string()}];
    if (ce.lines == 0) {
      ce.callsite = obj->callsite;
      ce.label = label_of(rt, *obj);
    }
    ce.invalidations += c.invalidations;
    ce.samples += c.samples;
    ce.lines += 1;
  }
  snap.escalations = lines.size();
  snap.lines_tracked = lines.size();
  snap.events_seen = snap.escalations + snap.samples + snap.predictions +
                     snap.virtual_lines;

  const std::size_t k = std::min(config_.top_k, lines.size());
  std::partial_sort(lines.begin(), lines.begin() + k, lines.end(),
                    [](const LineCounts& a, const LineCounts& b) {
                      if (a.invalidations != b.invalidations) {
                        return a.invalidations > b.invalidations;
                      }
                      if (a.samples != b.samples) return a.samples > b.samples;
                      return a.line_start < b.line_start;
                    });
  snap.top_lines.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const LineCounts& c = lines[i];
    MonitorSnapshot::LineEntry& le = snap.top_lines.emplace_back();
    le.line_start = c.line_start;
    le.invalidations = c.invalidations;
    le.samples = c.samples;
    le.sample_writes = c.sample_writes;
    le.predictions = c.predictions;
    le.escalated = true;
    if (const auto obj = object_of(rt, c.line_start)) {
      le.attributed = true;
      le.is_global = obj->is_global;
      le.object_start = obj->start;
      le.callsite = obj->callsite;
      le.label = label_of(rt, *obj);
    }
  }

  snap.callsites.reserve(by_site.size());
  for (auto& [key, ce] : by_site) snap.callsites.push_back(std::move(ce));
  std::sort(snap.callsites.begin(), snap.callsites.end(),
            [](const MonitorSnapshot::CallsiteEntry& a,
               const MonitorSnapshot::CallsiteEntry& b) {
              if (a.invalidations != b.invalidations) {
                return a.invalidations > b.invalidations;
              }
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.label < b.label;
            });
  return snap;
}

std::string format_snapshot(const MonitorSnapshot& snap) {
  std::string out;
  append_fmt(out,
             "=== live monitor snapshot #%" PRIu64 " ===\n"
             "totals: %" PRIu64 " escalated lines, %" PRIu64
             " invalidations, %" PRIu64 " sampled accesses, %" PRIu64
             " predictions, %" PRIu64 " virtual lines\n",
             snap.sequence, snap.escalations, snap.invalidations,
             snap.samples, snap.predictions, snap.virtual_lines);
  if (!snap.top_lines.empty()) {
    append_fmt(out, "top %zu lines (of %zu tracked):\n",
               snap.top_lines.size(), snap.lines_tracked);
    for (const auto& le : snap.top_lines) {
      append_fmt(out,
                 "  0x%012" PRIxPTR "  inv %-8" PRIu64 " samples %-8" PRIu64
                 " writes %-8" PRIu64 "%s",
                 le.line_start, le.invalidations, le.samples,
                 le.sample_writes, le.escalated ? " [tracked]" : "");
      if (le.attributed) {
        append_fmt(out, " %s %s", le.is_global ? "global" : "heap",
                   le.label.c_str());
      }
      out += '\n';
    }
  }
  if (!snap.callsites.empty()) {
    out += "hot callsites:\n";
    for (const auto& ce : snap.callsites) {
      append_fmt(out,
                 "  %-40s inv %-8" PRIu64 " samples %-8" PRIu64 " (%zu %s)\n",
                 ce.label.empty() ? "(unnamed)" : ce.label.c_str(),
                 ce.invalidations, ce.samples, ce.lines,
                 ce.lines == 1 ? "line" : "lines");
    }
  }
  return out;
}

std::string Monitor::snapshot_text() { return format_snapshot(snapshot()); }

}  // namespace pred
