// Monitor back end: ring registration, the background aggregation thread,
// event folding, lazy object/callsite attribution, incremental top-K, and
// snapshot construction/rendering. Everything here runs off the mutator
// hot path — the emitting side of the monitor lives entirely in
// monitor.hpp / event_ring.hpp.
#include "monitor/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include "common/format.hpp"
#include "runtime/runtime.hpp"

namespace pred {

const char* to_string(MonitorEventType t) {
  switch (t) {
    case MonitorEventType::kLineEscalated: return "line-escalated";
    case MonitorEventType::kInvalidation: return "invalidation";
    case MonitorEventType::kSampleHit: return "sample-hit";
    case MonitorEventType::kPredictionStarted: return "prediction-started";
    case MonitorEventType::kVirtualLineNominated: return "virtual-line";
  }
  return "?";
}

Monitor::Monitor(Runtime& runtime, MonitorConfig config)
    : runtime_(&runtime), config_(config) {}

Monitor::~Monitor() {
  stop();
  // Invalidate every thread's TLS ring binding into this monitor before the
  // rings are freed (the same generation fence Runtime destruction uses for
  // staged-write slots; see write_stage.hpp).
  detail::runtime_generation_counter.fetch_add(1, std::memory_order_acq_rel);
}

void Monitor::start() {
  std::unique_lock<std::mutex> lk(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  aggregator_ = std::thread([this] { aggregator_main(); });
  lk.unlock();
  runtime_->set_monitor(this);
}

void Monitor::stop() {
  // Emission stops first so no new events race the final drain below.
  runtime_->set_monitor(nullptr);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  aggregator_.join();
  std::lock_guard<std::mutex> lk(mu_);
  running_ = false;
  drain_all_locked();
}

void Monitor::bind_thread_ring() {
  detail::MonitorTls& tls = detail::t_monitor_tls;
  std::lock_guard<std::mutex> lk(mu_);
  EventRing*& slot = ring_by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    rings_.push_back(std::make_unique<EventRing>(config_.ring_capacity));
    slot = rings_.back().get();
  }
  tls.monitor = this;
  tls.ring = slot;
  tls.gen = runtime_generation();
}

void Monitor::aggregator_main() {
  const auto interval =
      std::chrono::milliseconds(std::max<std::uint32_t>(
          1, config_.aggregation_interval_ms));
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lk, interval, [this] { return stop_requested_; });
    drain_all_locked();
  }
}

void Monitor::drain_all_locked() {
  bool any = false;
  for (const auto& ring : rings_) {
    any |= ring->drain([this](const MonitorEvent& ev) { fold_locked(ev); }) > 0;
  }
  ++aggregation_passes_;
  if (any) refresh_topk_locked();
}

void Monitor::fold_locked(const MonitorEvent& ev) {
  ++events_seen_;
  // Sampled events only come from lines that own a CacheTracker, so they
  // imply escalation. Folding that in here keeps `escalated` truthful even
  // when the single kLineEscalated event was shed by a drop-oldest ring
  // that severity-blindly preferred the sample flood behind it.
  switch (ev.type) {
    case MonitorEventType::kLineEscalated: {
      LineAgg& agg = lines_[ev.addr];
      if (!agg.escalated) ++escalations_;
      agg.escalated = true;
      break;
    }
    case MonitorEventType::kInvalidation: {
      LineAgg& agg = lines_[ev.addr];
      if (!agg.escalated) ++escalations_;
      agg.escalated = true;
      ++agg.invalidations;
      ++agg.samples;
      agg.sample_writes += ev.arg & 1;
      ++invalidations_;
      ++samples_;
      break;
    }
    case MonitorEventType::kSampleHit: {
      LineAgg& agg = lines_[ev.addr];
      if (!agg.escalated) ++escalations_;
      agg.escalated = true;
      ++agg.samples;
      agg.sample_writes += ev.arg & 1;
      ++samples_;
      break;
    }
    case MonitorEventType::kPredictionStarted: {
      ++lines_[ev.addr].predictions;
      ++predictions_;
      break;
    }
    case MonitorEventType::kVirtualLineNominated: {
      ++virtual_lines_;
      break;
    }
  }
}

void Monitor::resolve_attribution_locked(Address line_start, LineAgg& agg) {
  if (agg.attributed) return;
  // Retry only while the object registry had no answer yet (objects are
  // usually registered before their first access, but globals can lag).
  auto obj = runtime_->objects().find(line_start);
  if (!obj) {
    // The object may start mid-line; probe the line's last byte too.
    obj = runtime_->objects().find(
        line_start + runtime_->config().geometry.line_size - 1);
  }
  agg.attribution_tried = true;
  if (!obj) return;
  agg.attributed = true;
  agg.is_global = obj->is_global;
  agg.object_start = obj->start;
  agg.callsite = obj->callsite;
  if (obj->is_global) {
    agg.label = obj->name;
  } else if (obj->callsite != kNoCallsite) {
    const Callsite& cs = runtime_->callsites().get(obj->callsite);
    if (!cs.frames.empty()) agg.label = cs.frames.back();
  }
}

void Monitor::refresh_topk_locked() {
  // The candidate pool is every line with events — only escalated/tracked
  // lines emit, so this map is orders of magnitude smaller than the shadow
  // space and a partial_sort per pass is cheaper than maintaining a heap
  // against counter updates.
  std::vector<Address> cand;
  cand.reserve(lines_.size());
  for (const auto& [addr, agg] : lines_) cand.push_back(addr);
  const std::size_t k = std::min(config_.top_k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + k, cand.end(),
                    [this](Address a, Address b) {
                      const LineAgg& la = lines_.at(a);
                      const LineAgg& lb = lines_.at(b);
                      if (la.invalidations != lb.invalidations) {
                        return la.invalidations > lb.invalidations;
                      }
                      if (la.samples != lb.samples) {
                        return la.samples > lb.samples;
                      }
                      return a < b;
                    });
  cand.resize(k);
  topk_ = std::move(cand);
}

MonitorSnapshot Monitor::build_snapshot_locked() {
  MonitorSnapshot snap;
  snap.sequence = ++snapshot_seq_;
  snap.events_seen = events_seen_;
  snap.aggregation_passes = aggregation_passes_;
  snap.escalations = escalations_;
  snap.invalidations = invalidations_;
  snap.samples = samples_;
  snap.predictions = predictions_;
  snap.virtual_lines = virtual_lines_;
  snap.lines_tracked = lines_.size();

  for (const auto& ring : rings_) {
    MonitorSnapshot::RingEntry re;
    re.produced = ring->produced();
    re.consumed = ring->consumed();
    re.dropped = ring->dropped();
    snap.events_dropped += re.dropped;
    snap.rings.push_back(re);
  }

  snap.top_lines.reserve(topk_.size());
  for (Address addr : topk_) {
    LineAgg& agg = lines_[addr];
    resolve_attribution_locked(addr, agg);
    MonitorSnapshot::LineEntry le;
    le.line_start = addr;
    le.invalidations = agg.invalidations;
    le.samples = agg.samples;
    le.sample_writes = agg.sample_writes;
    le.predictions = agg.predictions;
    le.escalated = agg.escalated;
    le.attributed = agg.attributed;
    le.is_global = agg.is_global;
    le.object_start = agg.object_start;
    le.callsite = agg.callsite;
    le.label = agg.label;
    snap.top_lines.push_back(std::move(le));
  }

  // Per-callsite rollup over every hot line (globals keyed by name under
  // kNoCallsite). Recomputed per snapshot from the per-line aggregates —
  // O(hot lines), which stays tiny.
  std::unordered_map<std::string, MonitorSnapshot::CallsiteEntry> by_site;
  for (auto& [addr, agg] : lines_) {
    resolve_attribution_locked(addr, agg);
    if (!agg.attributed) continue;
    const std::string key =
        agg.callsite != kNoCallsite
            ? "c:" + std::to_string(agg.callsite)
            : "g:" + agg.label;
    MonitorSnapshot::CallsiteEntry& ce = by_site[key];
    ce.callsite = agg.callsite;
    if (ce.label.empty()) ce.label = agg.label;
    ce.invalidations += agg.invalidations;
    ce.samples += agg.samples;
    ce.lines += 1;
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

MonitorSnapshot Monitor::snapshot() {
  // The report() contract, extended to snapshots: publish the calling
  // thread's staged write counters first (this can escalate lines and emit
  // events into the calling thread's ring), then drain, so everything the
  // caller did program-order-before this call is reflected.
  flush_staged_writes();
  std::lock_guard<std::mutex> lk(mu_);
  drain_all_locked();
  return build_snapshot_locked();
}

std::string format_snapshot(const MonitorSnapshot& snap) {
  std::string out;
  append_fmt(out,
             "=== live monitor snapshot #%" PRIu64 " ===\n"
             "events: %" PRIu64 " aggregated, %" PRIu64
             " dropped (%zu rings, %" PRIu64 " passes)\n"
             "totals: %" PRIu64 " escalated lines, %" PRIu64
             " invalidations, %" PRIu64 " sampled accesses, %" PRIu64
             " predictions, %" PRIu64 " virtual lines\n",
             snap.sequence, snap.events_seen, snap.events_dropped,
             snap.rings.size(), snap.aggregation_passes, snap.escalations,
             snap.invalidations, snap.samples, snap.predictions,
             snap.virtual_lines);
  if (!snap.top_lines.empty()) {
    append_fmt(out, "top %zu lines (of %zu with events):\n",
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
  if (snap.events_dropped > 0) {
    out += "per-ring backpressure:\n";
    for (std::size_t i = 0; i < snap.rings.size(); ++i) {
      const auto& re = snap.rings[i];
      if (re.dropped == 0) continue;
      append_fmt(out,
                 "  ring %zu: produced %" PRIu64 " consumed %" PRIu64
                 " dropped %" PRIu64 "\n",
                 i, re.produced, re.consumed, re.dropped);
    }
  }
  return out;
}

std::string Monitor::snapshot_text() { return format_snapshot(snapshot()); }

}  // namespace pred
