// Tests for trace persistence: round-trip fidelity, the saved bytes of a
// fixed trace, corruption rejection, canonical decoding, and the
// record-once / analyze-many workflow (saved traces replayed under
// different detector configurations give the same verdicts as live capture).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>

#include "trace/trace_io.hpp"
#include "trace/wire_format.hpp"
#include "workloads/workload.hpp"

namespace pred {
namespace {

ThreadTrace make_trace(std::size_t n, Address base) {
  ThreadTrace t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({base + 8 * i, static_cast<std::uint32_t>(i % 100),
                 i % 3 == 0 ? AccessType::kWrite : AccessType::kRead,
                 static_cast<std::uint8_t>(i % 2 ? 8 : 1)});
  }
  return t;
}

std::vector<ThreadTrace> three_threads() {
  std::vector<ThreadTrace> traces;
  traces.push_back(make_trace(1000, 0x1000));
  traces.push_back(make_trace(17, 0x2000));
  traces.push_back({});  // empty thread is legal
  return traces;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const std::vector<ThreadTrace> traces = three_threads();

  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));

  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    ASSERT_EQ(loaded[t].size(), traces[t].size()) << "thread " << t;
    for (std::size_t i = 0; i < traces[t].size(); ++i) {
      EXPECT_EQ(loaded[t][i].addr, traces[t][i].addr);
      EXPECT_EQ(loaded[t][i].think_cycles, traces[t][i].think_cycles);
      EXPECT_EQ(loaded[t][i].type, traces[t][i].type);
      EXPECT_EQ(loaded[t][i].size, traces[t][i].size);
    }
  }
  EXPECT_EQ(total_events(loaded), 1017u);
}

// The format, pinned: the size and CRC-32 of the bytes the byte-at-a-time
// writer of format v2 produced for this trace. Any drift in the frame
// header, the fields or the packed events changes them.
TEST(TraceIo, SavedBytesAreStable) {
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, three_threads()));
  const std::string bytes = buf.str();
  EXPECT_EQ(bytes.size(), 16488u);
  EXPECT_EQ(wire::crc32(bytes), 0xa6cda486u);
}

// Every stream load_traces accepts is one save_traces writes. Each payload
// byte of each frame is set to 0x00, 0xff, 0x02, 0x80 and itself ^ 1, and
// that frame's CRC is re-stamped, so the mutation reaches the field parser
// and the event decoder. The stream must then fail to load, or re-save to
// exactly the mutated bytes. No thread is empty, so a changed thread count
// always disagrees with the header's total.
TEST(TraceIo, AcceptedStreamsAreCanonical) {
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, {make_trace(3, 0x1000), make_trace(4, 0x2000),
                                make_trace(5, 0x3000)}));
  const std::string clean = buf.str();
  std::size_t frames = 0, cases = 0, accepted = 0;
  for (std::size_t at = 0; at < clean.size(); ++frames) {
    wire::Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::parse_frame(std::string_view(clean).substr(at), &frame,
                                &consumed),
              wire::FrameError::kOk);
    const std::size_t begin = at + wire::kFrameHeaderSize;
    const std::size_t len = consumed - wire::kFrameHeaderSize;
    for (std::size_t pos = begin; pos < begin + len; ++pos) {
      const auto byte = static_cast<unsigned char>(clean[pos]);
      std::set<unsigned char> values{0x00, 0xff, 0x02, 0x80,
                                     static_cast<unsigned char>(byte ^ 1)};
      values.erase(byte);
      for (const unsigned char v : values) {
        std::string bytes = clean;
        bytes[pos] = static_cast<char>(v);
        // Re-stamp the header's crc32 field (bytes 12-15, little-endian).
        const std::uint32_t crc = wire::crc32(bytes.data() + begin, len);
        for (int k = 0; k < 4; ++k) {
          bytes[at + 12 + k] = static_cast<char>(crc >> (8 * k));
        }
        ++cases;
        std::stringstream in(bytes);
        std::vector<ThreadTrace> loaded;
        if (!load_traces(in, &loaded)) {
          EXPECT_TRUE(loaded.empty());
          continue;
        }
        ++accepted;
        std::stringstream out;
        ASSERT_TRUE(save_traces(out, loaded));
        EXPECT_EQ(out.str(), bytes)
            << "payload byte " << pos - begin << " of frame " << frames
            << " set to " << static_cast<int>(v);
      }
    }
    at += consumed;
  }
  EXPECT_EQ(frames, 4u);
  EXPECT_GT(cases, 1000u);
  // Addresses, think cycles, sizes and read/write swaps stay valid traces.
  EXPECT_GT(accepted, 0u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buf;
  buf.write("NOPE", 4);
  std::vector<ThreadTrace> loaded{make_trace(3, 0)};
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());  // cleared on failure
}

TEST(TraceIo, RejectsTruncatedStream) {
  std::vector<ThreadTrace> traces{make_trace(100, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(cut, &loaded));
}

// The current writer emits the v2 frame stream; saved traces must start at
// a verifiable frame boundary, not the legacy preamble.
TEST(TraceIo, SavesVersion2FrameStream) {
  std::vector<ThreadTrace> traces{make_trace(5, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  const std::string bytes = buf.str();

  wire::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::parse_frame(bytes, &frame, &consumed), wire::FrameError::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kTraceHeader);
  ASSERT_EQ(wire::parse_frame(std::string_view(bytes).substr(consumed),
                              &frame, &consumed),
            wire::FrameError::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kThreadTrace);
}

// The pre-frame v1 layout (raw "PRTR" preamble) is no longer read: it
// fails the frame magic check like any other foreign bytes.
TEST(TraceIo, RejectsLegacyV1Files) {
  const ThreadTrace trace = make_trace(9, 0x3000);
  std::stringstream buf;
  const std::uint32_t v1_header[] = {0x50525452u /* "PRTR" */, 1, 1};
  buf.write(reinterpret_cast<const char*>(v1_header), sizeof v1_header);
  const std::uint64_t count = trace.size();
  buf.write(reinterpret_cast<const char*>(&count), 8);
  const std::string packed = pack_events(trace);
  buf.write(packed.data(), static_cast<std::streamsize>(packed.size()));

  std::vector<ThreadTrace> loaded{make_trace(3, 0)};
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// A header frame's thread count is untrusted until thread frames back it:
// a claim of 2^40 threads followed by end of stream is a clean rejection,
// not an allocation sized by the claim.
TEST(TraceIo, RejectsHeaderClaimingMoreThreadsThanFrames) {
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, std::uint64_t{1} << 40);  // thread count
  hw.u64(2, 0);                       // total events
  const std::string hframe =
      wire::encode_frame(wire::FrameType::kTraceHeader, header);
  std::stringstream buf(hframe);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// Thread frames must arrive in index order, as save_traces writes them.
TEST(TraceIo, RejectsThreadFramesOutOfOrder) {
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, 2);  // thread count
  hw.u64(2, 2);  // total events
  std::string bytes = wire::encode_frame(wire::FrameType::kTraceHeader, header);
  for (std::uint64_t index : {1, 0}) {
    std::string body;
    wire::FieldWriter bw(&body);
    bw.u64(1, index);
    bw.u64(2, 1);
    bw.bytes(3, pack_events(make_trace(1, 0x1000)));
    bytes += wire::encode_frame(wire::FrameType::kThreadTrace, body);
  }
  std::stringstream buf(bytes);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// Frame-level version skew (a future framing revision) is rejected up
// front, not misparsed.
TEST(TraceIo, RejectsFrameVersionSkew) {
  std::vector<ThreadTrace> traces{make_trace(6, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  std::string bytes = buf.str();
  bytes[4] = static_cast<char>(wire::kWireVersion + 1);
  std::stringstream skewed(bytes);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(skewed, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// Payload corruption inside a frame flips the CRC check, and the loader
// reports failure instead of returning garbage events.
TEST(TraceIo, RejectsCorruptFramePayload) {
  std::vector<ThreadTrace> traces{make_trace(50, 0x1000)};
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  std::string bytes = buf.str();
  bytes[bytes.size() - 7] ^= 0x08;  // inside the last thread's events
  std::stringstream corrupt(bytes);
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces(corrupt, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// Unknown payload fields from a newer writer are skipped: a trace stream
// annotated with extra fields still round-trips the events.
TEST(TraceIo, SkipsUnknownFieldsFromNewerWriters) {
  const ThreadTrace trace = make_trace(12, 0x2000);

  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, 1);                       // thread count
  hw.u64(2, trace.size());            // total events
  hw.str(700, "future annotation");   // unknown

  std::string body;
  wire::FieldWriter bw(&body);
  bw.u64(999, 0xffffffffull);         // unknown, leading
  bw.u64(1, 0);                       // thread index
  bw.u64(2, trace.size());            // event count
  bw.bytes(3, pack_events(trace));    // events
  bw.str(998, "more future data");    // unknown, trailing

  std::stringstream buf;
  const std::string hframe =
      wire::encode_frame(wire::FrameType::kTraceHeader, header);
  const std::string bframe =
      wire::encode_frame(wire::FrameType::kThreadTrace, body);
  buf.write(hframe.data(), static_cast<std::streamsize>(hframe.size()));
  buf.write(bframe.data(), static_cast<std::streamsize>(bframe.size()));

  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].size(), trace.size());
  EXPECT_EQ(loaded[0][5].addr, trace[5].addr);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "/tmp/predator_trace_test.bin";
  std::vector<ThreadTrace> traces{make_trace(64, 0x4000)};
  ASSERT_TRUE(save_traces_file(path, traces));
  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces_file(path, &loaded));
  EXPECT_EQ(total_events(loaded), 64u);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFailsCleanly) {
  std::vector<ThreadTrace> loaded;
  EXPECT_FALSE(load_traces_file("/nonexistent/dir/trace.bin", &loaded));
}

// Record once, analyze twice: the saved trace replayed into a fresh session
// reproduces the live capture's verdict, and the *same* trace analyzed with
// prediction disabled reproduces PREDATOR-NP — without re-running the
// program.
TEST(TraceIo, RecordOnceAnalyzeMany) {
  SessionOptions opts;
  opts.heap_size = 32 * 1024 * 1024;

  const wl::Workload* w = wl::find_workload("linear_regression");
  ASSERT_NE(w, nullptr);
  wl::Params p;
  p.threads = 8;
  p.offset = 0;

  // Record. Note: the recording session must stay alive while the traces
  // are analyzed, because traces reference its heap addresses.
  Session recorder(opts);
  const auto traces = w->capture(recorder, p);
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, traces));
  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));

  // Analysis 1: full PREDATOR over the loaded trace.
  wl::replay_into_session(recorder, loaded);
  bool only_predicted = false;
  EXPECT_TRUE(wl::report_mentions_site(
      recorder.report(), recorder.runtime().callsites(),
      w->traits().sites[0].where, &only_predicted));
  EXPECT_TRUE(only_predicted);
}

}  // namespace
}  // namespace pred
