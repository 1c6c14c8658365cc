#include "collect/collector.hpp"

#include "repair/plan_codec.hpp"
#include "trace/snapshot_codec.hpp"
#include "trace/wire_format.hpp"

namespace pred {

bool Collector::ingest_frame(std::string_view frame_bytes) {
  wire::Frame frame;
  std::size_t consumed = 0;
  const wire::FrameError err =
      wire::parse_frame(frame_bytes, &frame, &consumed);
  if (err != wire::FrameError::kOk) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.frames_rejected;
    return false;
  }
  return ingest_frame(frame);
}

// Payloads are decoded before the lock is taken: only the join and the
// counters need it.
bool Collector::ingest_frame(const wire::Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kSnapshot: {
      DecodedSnapshot decoded;
      if (!SnapshotCodec::decode(frame.payload, &decoded)) break;
      std::lock_guard<std::mutex> lk(mu_);
      state_.absorb(decoded.client.uid, decoded.client.pid, decoded.snapshot);
      ++stats_.frames_ingested;
      ++stats_.snapshots_ingested;
      return true;
    }
    case wire::FrameType::kHello: {
      ClientId client;
      if (!SnapshotCodec::decode_client(frame.payload, &client)) break;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.frames_ingested;
      ++stats_.hellos;
      return true;
    }
    case wire::FrameType::kGoodbye: {
      ClientId client;
      if (!SnapshotCodec::decode_client(frame.payload, &client)) break;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.frames_ingested;
      ++stats_.goodbyes;
      return true;
    }
    case wire::FrameType::kRepairPlan: {
      repair::RepairPlan plan;
      if (!repair::decode_plan_payload(frame.payload, &plan)) break;
      std::lock_guard<std::mutex> lk(mu_);
      repair::merge_plans(merged_plan_, plan);
      ++stats_.frames_ingested;
      ++stats_.plans_ingested;
      return true;
    }
    default:
      break;  // trace frames etc. have no business on a snapshot transport
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.frames_rejected;
  return false;
}

void Collector::ingest(std::uint64_t client_uid, std::uint64_t client_pid,
                       const MonitorSnapshot& snap) {
  std::lock_guard<std::mutex> lk(mu_);
  state_.absorb(client_uid, client_pid, snap);
}

FleetState Collector::state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_;
}

FleetRollup Collector::rollup() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_.rollup(top_k_);
}

repair::RepairPlan Collector::merged_plan() const {
  std::lock_guard<std::mutex> lk(mu_);
  return merged_plan_;
}

Collector::Stats Collector::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace pred
