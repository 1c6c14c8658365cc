// Tests for SnapshotCodec: lossless round-trip of every MonitorSnapshot
// field, hello/goodbye brackets, forward compatibility with newer-client
// fields, and Session::publish() producing a decodable self-identifying
// frame from a real session.
#include <gtest/gtest.h>

#include "api/predator.hpp"
#include "trace/snapshot_codec.hpp"
#include "trace/wire_format.hpp"

namespace pred {
namespace {

MonitorSnapshot sample_snapshot() {
  MonitorSnapshot s;
  s.sequence = 41;
  s.events_seen = 100000;
  s.escalations = 12;
  s.invalidations = 4321;
  s.samples = 8000;
  s.predictions = 3;
  s.virtual_lines = 9;
  s.lines_tracked = 15;

  MonitorSnapshot::LineEntry le;
  le.line_start = 0x4000000040;
  le.invalidations = 321;
  le.samples = 654;
  le.sample_writes = 400;
  le.predictions = 2;
  le.escalated = true;
  le.attributed = true;
  le.is_global = false;
  le.object_start = 0x4000000000;
  le.callsite = 7;
  le.label = "app.c:42 \"quoted\"";
  s.top_lines.push_back(le);
  le.line_start = 0x4000000080;
  le.is_global = true;
  le.escalated = false;
  le.label = "";
  s.top_lines.push_back(le);

  MonitorSnapshot::CallsiteEntry ce;
  ce.callsite = 7;
  ce.label = "app.c:42 \"quoted\"";
  ce.invalidations = 321;
  ce.samples = 654;
  ce.lines = 2;
  s.callsites.push_back(ce);
  return s;
}

void expect_snapshots_equal(const MonitorSnapshot& a,
                            const MonitorSnapshot& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.events_seen, b.events_seen);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.virtual_lines, b.virtual_lines);
  EXPECT_EQ(a.lines_tracked, b.lines_tracked);
  ASSERT_EQ(a.top_lines.size(), b.top_lines.size());
  for (std::size_t i = 0; i < a.top_lines.size(); ++i) {
    const auto& x = a.top_lines[i];
    const auto& y = b.top_lines[i];
    EXPECT_EQ(x.line_start, y.line_start);
    EXPECT_EQ(x.invalidations, y.invalidations);
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.sample_writes, y.sample_writes);
    EXPECT_EQ(x.predictions, y.predictions);
    EXPECT_EQ(x.escalated, y.escalated);
    EXPECT_EQ(x.attributed, y.attributed);
    EXPECT_EQ(x.is_global, y.is_global);
    EXPECT_EQ(x.object_start, y.object_start);
    EXPECT_EQ(x.callsite, y.callsite);
    EXPECT_EQ(x.label, y.label);
  }
  ASSERT_EQ(a.callsites.size(), b.callsites.size());
  for (std::size_t i = 0; i < a.callsites.size(); ++i) {
    EXPECT_EQ(a.callsites[i].callsite, b.callsites[i].callsite);
    EXPECT_EQ(a.callsites[i].label, b.callsites[i].label);
    EXPECT_EQ(a.callsites[i].invalidations, b.callsites[i].invalidations);
    EXPECT_EQ(a.callsites[i].samples, b.callsites[i].samples);
    EXPECT_EQ(a.callsites[i].lines, b.callsites[i].lines);
  }
}

// Unwraps the frame layer and hands back the verified payload.
std::string frame_payload(const std::string& frame_bytes,
                          wire::FrameType expected_type) {
  wire::Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::parse_frame(frame_bytes, &frame, &consumed),
            wire::FrameError::kOk);
  EXPECT_EQ(frame.type, expected_type);
  EXPECT_EQ(consumed, frame_bytes.size());
  return frame.payload;
}

TEST(SnapshotCodec, RoundTripPreservesEverything) {
  const MonitorSnapshot snap = sample_snapshot();
  const ClientId client{0xabc000000123ull, 4242};
  const std::string frame = SnapshotCodec::encode(snap, client);

  DecodedSnapshot decoded;
  ASSERT_TRUE(SnapshotCodec::decode(
      frame_payload(frame, wire::FrameType::kSnapshot), &decoded));
  EXPECT_EQ(decoded.client.uid, client.uid);
  EXPECT_EQ(decoded.client.pid, client.pid);
  expect_snapshots_equal(decoded.snapshot, snap);
}

TEST(SnapshotCodec, EmptySnapshotRoundTrips) {
  DecodedSnapshot decoded;
  ASSERT_TRUE(SnapshotCodec::decode(
      frame_payload(SnapshotCodec::encode(MonitorSnapshot{}, ClientId{}),
                    wire::FrameType::kSnapshot),
      &decoded));
  expect_snapshots_equal(decoded.snapshot, MonitorSnapshot{});
}

TEST(SnapshotCodec, HelloGoodbyeCarryIdentity) {
  const ClientId client{991, 1234};
  ClientId out;
  ASSERT_TRUE(SnapshotCodec::decode_client(
      frame_payload(SnapshotCodec::encode_hello(client),
                    wire::FrameType::kHello),
      &out));
  EXPECT_EQ(out.uid, client.uid);
  EXPECT_EQ(out.pid, client.pid);
  ASSERT_TRUE(SnapshotCodec::decode_client(
      frame_payload(SnapshotCodec::encode_goodbye(client),
                    wire::FrameType::kGoodbye),
      &out));
  EXPECT_EQ(out.uid, client.uid);
}

TEST(SnapshotCodec, SkipsFieldsFromNewerClients) {
  // Append unknown top-level fields (both kinds) to a valid payload: those
  // of a future client, and the retired ids 5 (events dropped), 6
  // (aggregation passes) and 15 (a nested ring entry) an older client
  // still sends. The decode must ignore them and still recover the
  // snapshot exactly.
  const MonitorSnapshot snap = sample_snapshot();
  for (const bool retired : {false, true}) {
    std::string payload =
        frame_payload(SnapshotCodec::encode(snap, ClientId{5, 6}),
                      wire::FrameType::kSnapshot);
    wire::FieldWriter w(&payload);
    if (retired) {
      std::string ring;
      wire::FieldWriter(&ring).u64(1, 50000);
      w.u64(5, 250);
      w.u64(6, 77);
      w.bytes(15, ring);
    } else {
      w.u64(600, 123456789);
      w.str(601, "telemetry from the future");
    }
    DecodedSnapshot decoded;
    ASSERT_TRUE(SnapshotCodec::decode(payload, &decoded)) << retired;
    EXPECT_EQ(decoded.client.uid, 5u);
    expect_snapshots_equal(decoded.snapshot, snap);
  }
}

TEST(SnapshotCodec, RejectsMalformedPayload) {
  std::string payload = frame_payload(
      SnapshotCodec::encode(sample_snapshot(), ClientId{1, 2}),
      wire::FrameType::kSnapshot);
  payload.resize(payload.size() - 5);  // tear the final field
  DecodedSnapshot decoded;
  EXPECT_FALSE(SnapshotCodec::decode(payload, &decoded));
}

// A known u64 field (the client uid, the payload's first field) rewritten
// as kBytes, or as a u64 four bytes wide, rejects the payload instead of
// decoding as 0.
TEST(SnapshotCodec, RejectsMistypedKnownFields) {
  const std::string payload = frame_payload(
      SnapshotCodec::encode(sample_snapshot(), ClientId{7, 8}),
      wire::FrameType::kSnapshot);
  const std::string hello = frame_payload(
      SnapshotCodec::encode_hello(ClientId{7, 8}), wire::FrameType::kHello);
  DecodedSnapshot decoded;
  ClientId client;
  ASSERT_TRUE(SnapshotCodec::decode(payload, &decoded));
  ASSERT_TRUE(SnapshotCodec::decode_client(hello, &client));
  for (std::string bad : {payload, hello}) {
    bad[2] = static_cast<char>(wire::FieldKind::kBytes);
    EXPECT_FALSE(SnapshotCodec::decode(bad, &decoded));
    EXPECT_FALSE(SnapshotCodec::decode_client(bad, &client));
  }
  for (std::string bad : {payload, hello}) {
    bad[4] = 4;  // value length 8 -> 4
    bad.erase(8 + 4, 4);
    EXPECT_FALSE(SnapshotCodec::decode(bad, &decoded));
    EXPECT_FALSE(SnapshotCodec::decode_client(bad, &client));
  }
}

TEST(SessionPublish, ProducesDecodableSelfIdentifyingFrame) {
  SessionOptions opts;
  opts.heap_size = 8 * 1024 * 1024;
  opts.session_uid = 777;
  Session session(opts);

  const std::string frame = session.publish();

  DecodedSnapshot decoded;
  ASSERT_TRUE(SnapshotCodec::decode(
      frame_payload(frame, wire::FrameType::kSnapshot), &decoded));
  EXPECT_EQ(decoded.client.uid, 777u);
  EXPECT_NE(decoded.client.pid, 0u);

  ClientId hello;
  ASSERT_TRUE(SnapshotCodec::decode_client(
      frame_payload(session.hello_frame(), wire::FrameType::kHello), &hello));
  EXPECT_EQ(hello.uid, 777u);
}

TEST(SessionPublish, DefaultUidsAreDistinctWithinProcess) {
  SessionOptions opts;
  opts.heap_size = 8 * 1024 * 1024;
  Session a(opts);
  Session b(opts);
  EXPECT_NE(a.uid(), 0u);
  EXPECT_NE(a.uid(), b.uid());
}

}  // namespace
}  // namespace pred
