#include "report_io/snapshot_json.hpp"

#include "report_io/json_writer.hpp"
#include "report_io/report_json.hpp"

namespace pred {

std::string snapshot_json(const MonitorSnapshot& snap) {
  JsonWriter w;
  w.begin_object();
  w.field("sequence", snap.sequence);
  w.field("events_seen", snap.events_seen);
  w.field("escalations", snap.escalations);
  w.field("invalidations", snap.invalidations);
  w.field("samples", snap.samples);
  w.field("predictions", snap.predictions);
  w.field("virtual_lines", snap.virtual_lines);
  w.field("lines_tracked", snap.lines_tracked);

  w.key("top_lines").begin_array();
  for (const auto& line : snap.top_lines) {
    w.begin_object();
    w.field("line_start", line.line_start);
    w.field("invalidations", line.invalidations);
    w.field("samples", line.samples);
    w.field("sample_writes", line.sample_writes);
    w.field("predictions", line.predictions);
    w.field("escalated", line.escalated);
    w.field("attributed", line.attributed);
    if (line.attributed) {
      w.field("is_global", line.is_global);
      w.field("object_start", line.object_start);
      w.field("callsite", static_cast<std::uint64_t>(line.callsite));
      w.field("label", line.label);
    }
    w.end_object();
  }
  w.end_array();

  w.key("callsites").begin_array();
  for (const auto& site : snap.callsites) {
    w.begin_object();
    w.field("callsite", static_cast<std::uint64_t>(site.callsite));
    w.field("label", site.label);
    w.field("invalidations", site.invalidations);
    w.field("samples", site.samples);
    w.field("lines", site.lines);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

std::string rollup_json(const FleetRollup& rollup,
                        const repair::RepairPlan* plan) {
  JsonWriter w;
  w.begin_object();
  w.field("clients", rollup.clients);
  w.field("events_seen", rollup.events_seen);
  w.field("escalations", rollup.escalations);
  w.field("invalidations", rollup.invalidations);
  w.field("samples", rollup.samples);
  w.field("predictions", rollup.predictions);
  w.field("virtual_lines", rollup.virtual_lines);
  w.field("lines_tracked", rollup.lines_tracked);

  w.key("top_lines").begin_array();
  for (const auto& line : rollup.top_lines) {
    w.begin_object();
    w.field("client_uid", line.client_uid);
    w.field("client_pid", line.client_pid);
    w.field("line_start", line.line_start);
    w.field("invalidations", line.invalidations);
    w.field("samples", line.samples);
    w.field("sample_writes", line.sample_writes);
    w.field("predictions", line.predictions);
    w.field("escalated", line.escalated);
    w.field("attributed", line.attributed);
    w.field("is_global", line.is_global);
    w.field("label", line.label);
    w.end_object();
  }
  w.end_array();

  w.key("sites").begin_array();
  for (const auto& site : rollup.sites) {
    w.begin_object();
    w.field("label", site.label);
    w.field("invalidations", site.invalidations);
    w.field("samples", site.samples);
    w.field("lines", site.lines);
    w.field("clients", site.clients);
    w.end_object();
  }
  w.end_array();

  if (plan != nullptr) {
    w.key("repair_plan").begin_object();
    write_plan_fields(w, *plan);
    w.end_object();
  }

  w.end_object();
  return w.str();
}

}  // namespace pred
