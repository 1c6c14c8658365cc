// JSON serialization for monitor snapshots and fleet rollups, built on the
// escaping JsonWriter every other exporter uses. Lives in report_io (not
// monitor/) because the runtime layer cannot depend on report_io without a
// cycle; callers that want JSON link report_io and call these free
// functions alongside Monitor::snapshot_text() / Collector::rollup_text().
#pragma once

#include <string>

#include "monitor/monitor.hpp"
#include "monitor/snapshot_merge.hpp"
#include "repair/plan.hpp"

namespace pred {

/// One MonitorSnapshot as a JSON object (scalars, top_lines, callsites) —
/// the JSON twin of Monitor::snapshot_text().
std::string snapshot_json(const MonitorSnapshot& snap);

/// A fleet rollup as a JSON object. When `plan` is non-null
/// (Collector::merged_plan()), the fleet's merged repair advice rides along
/// under "repair_plan".
std::string rollup_json(const FleetRollup& rollup,
                        const repair::RepairPlan* plan = nullptr);

}  // namespace pred
