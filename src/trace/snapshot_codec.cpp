#include "trace/snapshot_codec.hpp"

#include "trace/wire_format.hpp"

namespace pred {

namespace {

using wire::Field;
using wire::FieldReader;
using wire::FieldWriter;

// Top-level snapshot payload field ids. New telemetry gets new ids; never
// reuse or renumber — old collectors skip what they do not know. Retired,
// never to be reused: 5 (events dropped), 6 (aggregation passes) and 15
// (per-ring event counts, nested ids 1-3); decoders skip them like any
// unknown id.
enum : std::uint16_t {
  kFClientUid = 1,
  kFClientPid = 2,
  kFSequence = 3,
  kFEventsSeen = 4,
  kFEscalations = 7,
  kFInvalidations = 8,
  kFSamples = 9,
  kFPredictions = 10,
  kFVirtualLines = 11,
  kFLinesTracked = 12,
  kFLineEntry = 13,      // repeated, nested
  kFCallsiteEntry = 14,  // repeated, nested
};

// Nested LineEntry field ids.
enum : std::uint16_t {
  kFLineStart = 1,
  kFLineInvalidations = 2,
  kFLineSamples = 3,
  kFLineSampleWrites = 4,
  kFLinePredictions = 5,
  kFLineFlags = 6,  // bit0 escalated, bit1 attributed, bit2 is_global
  kFLineObjectStart = 7,
  kFLineCallsite = 8,
  kFLineLabel = 9,
};

// Nested CallsiteEntry field ids.
enum : std::uint16_t {
  kFSiteCallsite = 1,
  kFSiteLabel = 2,
  kFSiteInvalidations = 3,
  kFSiteSamples = 4,
  kFSiteLines = 5,
};

std::string encode_line(const MonitorSnapshot::LineEntry& le) {
  std::string out;
  FieldWriter w(&out);
  w.u64(kFLineStart, le.line_start);
  w.u64(kFLineInvalidations, le.invalidations);
  w.u64(kFLineSamples, le.samples);
  w.u64(kFLineSampleWrites, le.sample_writes);
  w.u64(kFLinePredictions, le.predictions);
  w.u64(kFLineFlags, (le.escalated ? 1u : 0u) | (le.attributed ? 2u : 0u) |
                         (le.is_global ? 4u : 0u));
  w.u64(kFLineObjectStart, le.object_start);
  w.u64(kFLineCallsite, le.callsite);
  w.str(kFLineLabel, le.label);
  return out;
}

bool decode_line(std::string_view bytes, MonitorSnapshot::LineEntry* le) {
  FieldReader r(bytes);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFLineStart: ok = f->read_u64(&le->line_start); break;
      case kFLineInvalidations: ok = f->read_u64(&le->invalidations); break;
      case kFLineSamples: ok = f->read_u64(&le->samples); break;
      case kFLineSampleWrites: ok = f->read_u64(&le->sample_writes); break;
      case kFLinePredictions: ok = f->read_u64(&le->predictions); break;
      case kFLineFlags: {
        std::uint64_t flags = 0;
        ok = f->read_u64(&flags);
        le->escalated = flags & 1;
        le->attributed = flags & 2;
        le->is_global = flags & 4;
        break;
      }
      case kFLineObjectStart: ok = f->read_u64(&le->object_start); break;
      case kFLineCallsite: ok = f->read_u64(&le->callsite); break;
      case kFLineLabel: le->label.assign(f->bytes); break;
      default: break;  // field from a newer client — skip
    }
    if (!ok) return false;
  }
  return !r.malformed();
}

std::string encode_site(const MonitorSnapshot::CallsiteEntry& ce) {
  std::string out;
  FieldWriter w(&out);
  w.u64(kFSiteCallsite, ce.callsite);
  w.str(kFSiteLabel, ce.label);
  w.u64(kFSiteInvalidations, ce.invalidations);
  w.u64(kFSiteSamples, ce.samples);
  w.u64(kFSiteLines, ce.lines);
  return out;
}

bool decode_site(std::string_view bytes, MonitorSnapshot::CallsiteEntry* ce) {
  FieldReader r(bytes);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFSiteCallsite: ok = f->read_u64(&ce->callsite); break;
      case kFSiteLabel: ce->label.assign(f->bytes); break;
      case kFSiteInvalidations: ok = f->read_u64(&ce->invalidations); break;
      case kFSiteSamples: ok = f->read_u64(&ce->samples); break;
      case kFSiteLines: ok = f->read_u64(&ce->lines); break;
      default: break;
    }
    if (!ok) return false;
  }
  return !r.malformed();
}

std::string encode_client_payload(const ClientId& client) {
  std::string payload;
  FieldWriter w(&payload);
  w.u64(kFClientUid, client.uid);
  w.u64(kFClientPid, client.pid);
  return payload;
}

}  // namespace

std::string SnapshotCodec::encode(const MonitorSnapshot& snap,
                                  const ClientId& client) {
  std::string payload;
  FieldWriter w(&payload);
  w.u64(kFClientUid, client.uid);
  w.u64(kFClientPid, client.pid);
  w.u64(kFSequence, snap.sequence);
  w.u64(kFEventsSeen, snap.events_seen);
  w.u64(kFEscalations, snap.escalations);
  w.u64(kFInvalidations, snap.invalidations);
  w.u64(kFSamples, snap.samples);
  w.u64(kFPredictions, snap.predictions);
  w.u64(kFVirtualLines, snap.virtual_lines);
  w.u64(kFLinesTracked, snap.lines_tracked);
  for (const auto& le : snap.top_lines) w.bytes(kFLineEntry, encode_line(le));
  for (const auto& ce : snap.callsites) {
    w.bytes(kFCallsiteEntry, encode_site(ce));
  }
  return wire::encode_frame(wire::FrameType::kSnapshot, payload);
}

bool SnapshotCodec::decode(std::string_view payload, DecodedSnapshot* out) {
  *out = DecodedSnapshot{};
  MonitorSnapshot& snap = out->snapshot;
  FieldReader r(payload);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFClientUid: ok = f->read_u64(&out->client.uid); break;
      case kFClientPid: ok = f->read_u64(&out->client.pid); break;
      case kFSequence: ok = f->read_u64(&snap.sequence); break;
      case kFEventsSeen: ok = f->read_u64(&snap.events_seen); break;
      case kFEscalations: ok = f->read_u64(&snap.escalations); break;
      case kFInvalidations: ok = f->read_u64(&snap.invalidations); break;
      case kFSamples: ok = f->read_u64(&snap.samples); break;
      case kFPredictions: ok = f->read_u64(&snap.predictions); break;
      case kFVirtualLines: ok = f->read_u64(&snap.virtual_lines); break;
      case kFLinesTracked: ok = f->read_u64(&snap.lines_tracked); break;
      case kFLineEntry: {
        MonitorSnapshot::LineEntry le;
        if (!decode_line(f->bytes, &le)) return false;
        snap.top_lines.push_back(std::move(le));
        break;
      }
      case kFCallsiteEntry: {
        MonitorSnapshot::CallsiteEntry ce;
        if (!decode_site(f->bytes, &ce)) return false;
        snap.callsites.push_back(std::move(ce));
        break;
      }
      default: break;  // newer-client field — skip
    }
    if (!ok) return false;
  }
  return !r.malformed();
}

std::string SnapshotCodec::encode_hello(const ClientId& client) {
  return wire::encode_frame(wire::FrameType::kHello,
                            encode_client_payload(client));
}

std::string SnapshotCodec::encode_goodbye(const ClientId& client) {
  return wire::encode_frame(wire::FrameType::kGoodbye,
                            encode_client_payload(client));
}

bool SnapshotCodec::decode_client(std::string_view payload, ClientId* out) {
  *out = ClientId{};
  FieldReader r(payload);
  while (auto f = r.next()) {
    bool ok = true;
    switch (f->id) {
      case kFClientUid: ok = f->read_u64(&out->uid); break;
      case kFClientPid: ok = f->read_u64(&out->pid); break;
      default: break;
    }
    if (!ok) return false;
  }
  return !r.malformed();
}

}  // namespace pred
