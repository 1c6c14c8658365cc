// Tests for trace persistence: round-trip fidelity, the saved bytes of a
// fixed trace, corruption rejection, canonical decoding, and the
// record-once / analyze-many workflow (saved traces replayed under
// different detector configurations give the same verdicts as live capture).
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "trace/trace_io.hpp"
#include "trace/wire_format.hpp"
#include "workloads/workload.hpp"

namespace {
/// Allocations of at least this many bytes throw std::bad_alloc, so a test
/// can make the codec fail on a thread of its choosing (see
/// FailingAllocations).
std::atomic<std::size_t> g_fail_new_from{SIZE_MAX};
}  // namespace

// Every non-aligned form of new and delete is replaced, so memory from any
// of them is freed by a matching one (sanitizer runtimes check the pairs).
// GCC would flag the free() calls wherever it inlines a delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (n >= g_fail_new_from.load(std::memory_order_relaxed)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

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

// Events that reach every field of the encoding: writes, all five size
// codes (one explicit), think cycles of one and two varint bytes, and
// address deltas that go forward and backward and take two or three
// varint bytes (the first, from address 0, more).
ThreadTrace varied_trace(std::size_t n, Address base) {
  static constexpr std::uint8_t kSizes[] = {1, 2, 4, 8, 16};
  ThreadTrace t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({base + (i * 0x9e37) % 0x4000,
                 static_cast<std::uint32_t>(i % 3 == 0 ? 0 : i * 40),
                 i % 2 ? AccessType::kWrite : AccessType::kRead,
                 kSizes[i % 5]});
  }
  return t;
}

// The 16-byte event records { addr u64, think u32, type u8, size u8,
// pad u16 } of the first v2 writers, which no reader accepts any more.
std::string record_bytes(const ThreadTrace& trace) {
  std::string out;
  for (const TraceEvent& ev : trace) {
    char rec[16] = {};
    const auto addr = static_cast<std::uint64_t>(ev.addr);
    std::memcpy(rec, &addr, 8);
    std::memcpy(rec + 8, &ev.think_cycles, 4);
    rec[12] = static_cast<char>(ev.type);
    rec[13] = static_cast<char>(ev.size);
    out.append(rec, sizeof rec);
  }
  return out;
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

// The format, pinned: the size and CRC-32 of the bytes save_traces writes
// for this trace. Any drift in the frame header, the fields or the event
// encoding changes them.
TEST(TraceIo, SavedBytesAreStable) {
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, three_threads()));
  const std::string bytes = buf.str();
  EXPECT_EQ(bytes.size(), 3259u);
  EXPECT_EQ(wire::crc32(bytes), 0xe84b99fbu);
}

// Every stream load_traces accepts is one save_traces writes. Each payload
// byte of each frame is set to 0x00, 0xff, 0x02, 0x80 and itself ^ 1, and
// that frame's CRC is re-stamped, so the mutation reaches the field parser
// and the event decoder. The stream must then fail to load, or re-save to
// exactly the mutated bytes. No thread is empty, so a changed thread count
// always disagrees with the header's total; the events reach every tag bit,
// an explicit size byte, multi-byte varints, think cycles and backward
// deltas.
TEST(TraceIo, AcceptedStreamsAreCanonical) {
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, {varied_trace(7, 0x1000),
                                varied_trace(8, 0x7f0000002000),
                                varied_trace(9, 0x3000)}));
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
  const std::string records = record_bytes(trace);
  buf.write(records.data(), static_cast<std::streamsize>(records.size()));

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
    bw.bytes(4, encode_events(make_trace(1, 0x1000)));
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
  bw.bytes(4, encode_events(trace));  // events
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

// The encoding's edges round-trip: addresses 0 and 2^64 - 1, deltas of
// 0, +-1, +-(2^63 - 1) and 2^63 (which is also -2^63), think cycles 0, 1
// and 2^32 - 1, and sizes without a size code. Each canonical rule then
// rejects a stream that breaks only it.
TEST(TraceIo, CompactEventsEdgeCases) {
  using namespace std::string_literals;
  constexpr Address kMax = std::numeric_limits<Address>::max();
  constexpr Address kHalf = Address{1} << 63;
  constexpr std::uint32_t kThinkMax = UINT32_MAX;
  const ThreadTrace edges{
      {0, 0, AccessType::kRead, 0},             // delta 0
      {kMax, 1, AccessType::kWrite, 3},         // -1
      {kHalf - 1, kThinkMax, AccessType::kRead, 16},  // 2^63
      {0, 0, AccessType::kWrite, 255},          // -(2^63 - 1)
      {kHalf - 1, 1, AccessType::kRead, 1},     // 2^63 - 1
      {kMax, 0, AccessType::kRead, 2},          // 2^63
      {0, kThinkMax, AccessType::kWrite, 4},    // +1
  };
  std::stringstream buf;
  ASSERT_TRUE(save_traces(buf, {edges, {}}));
  std::vector<ThreadTrace> loaded;
  ASSERT_TRUE(load_traces(buf, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_EQ(loaded[0].size(), edges.size());
  EXPECT_TRUE(loaded[1].empty());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(loaded[0][i].addr, edges[i].addr) << "event " << i;
    EXPECT_EQ(loaded[0][i].think_cycles, edges[i].think_cycles) << i;
    EXPECT_EQ(loaded[0][i].type, edges[i].type) << i;
    EXPECT_EQ(loaded[0][i].size, edges[i].size) << i;
  }
  std::stringstream again;
  ASSERT_TRUE(save_traces(again, loaded));
  EXPECT_EQ(again.str(), buf.str());

  // Two events byte by byte: an 8-byte write at 0x1000 is tag 0x07 and the
  // varint of zigzag(0x1000) = 0x2000; a 3-byte read 8 bytes lower after 5
  // think cycles is tag 0x18, size byte 3, zigzag(-8) = 15, then 5.
  EXPECT_EQ(encode_events({{0x1000, 0, AccessType::kWrite, 8},
                           {0xff8, 5, AccessType::kRead, 3}}),
            "\x07\x80\x40\x18\x03\x0f\x05"s);
  // A delta of 2^63 takes the longest varint: nine 0xff and a 0x01.
  EXPECT_EQ(encode_events({{kHalf, 0, AccessType::kRead, 1}}),
            "\x00"s + std::string(9, '\xff') + "\x01"s);

  ThreadTrace out;
  const auto decodes = [&](const std::string& bytes, std::uint64_t count) {
    return decode_events(bytes, count, &out);
  };
  EXPECT_TRUE(decodes("\x00\x00"s, 1));  // a 1-byte read at 0
  // Tag bits 5-7, and size codes 5-7.
  for (const char tag : {'\x20', '\x40', '\x80', '\x0a', '\x0c', '\x0e'}) {
    EXPECT_FALSE(decodes(std::string{tag, '\0'}, 1)) << int{tag};
  }
  // An explicit size byte holding a size that has a size code.
  EXPECT_TRUE(decodes("\x08\x03\x00"s, 1));
  for (const char size : {1, 2, 4, 8}) {
    EXPECT_FALSE(decodes(std::string{'\x08', size, '\0'}, 1)) << int{size};
  }
  // The think flag with a think value of 0.
  EXPECT_TRUE(decodes("\x10\x00\x01"s, 1));
  EXPECT_FALSE(decodes("\x10\x00\x00"s, 1));
  // A varint that is not minimal: a delta or think ending in a zero byte.
  EXPECT_FALSE(decodes("\x00\x80\x00"s, 1));
  EXPECT_FALSE(decodes("\x10\x00\x81\x00"s, 1));
  // A delta varint longer than 10 bytes, or whose 10th byte is not 1.
  const std::string nine(9, '\xff');
  EXPECT_TRUE(decodes("\x00"s + nine + "\x01"s, 1));
  EXPECT_FALSE(decodes("\x00"s + nine + "\x02"s, 1));
  EXPECT_FALSE(decodes("\x00"s + nine + "\x81\x01"s, 1));
  // A think varint longer than 5 bytes or above 2^32 - 1.
  EXPECT_TRUE(decodes("\x10\x00\xff\xff\xff\xff\x0f"s, 1));
  EXPECT_EQ(out[0].think_cycles, kThinkMax);
  EXPECT_FALSE(decodes("\x10\x00\x80\x80\x80\x80\x10"s, 1));
  EXPECT_FALSE(decodes("\x10\x00\x81\x80\x80\x80\x80\x01"s, 1));
  // An event cut off after its tag, its size byte, inside its delta or
  // before its think varint.
  for (const std::string& cut :
       {"\x00"s, "\x08\x03"s, "\x00\x80"s, "\x10\x00"s, "\x10\x00\x80"s}) {
    EXPECT_FALSE(decodes(cut, 1)) << cut.size();
  }
  // Bytes left after the event count.
  EXPECT_FALSE(decodes("\x00\x00\x00"s, 1));
  // An event count above bytes / 2, rejected before `out` is sized.
  EXPECT_TRUE(decodes("\x00\x00\x00\x00"s, 2));
  EXPECT_FALSE(decodes("\x00\x00\x00"s, 2));
  EXPECT_FALSE(decodes("\x00\x00"s, std::uint64_t{1} << 60));
}

// A stream from the first v2 writers: its thread frame holds 16-byte
// records under field 3, which is neither written nor read, so the stream
// has no events field and fails to load.
TEST(TraceIo, RejectsRecordFormatStreams) {
  const ThreadTrace trace = make_trace(12, 0x2000);
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, 1);             // thread count
  hw.u64(2, trace.size());  // total events
  std::string body;
  wire::FieldWriter bw(&body);
  bw.u64(1, 0);             // thread index
  bw.u64(2, trace.size());  // event count
  bw.bytes(3, record_bytes(trace));
  std::stringstream buf(
      wire::encode_frame(wire::FrameType::kTraceHeader, header) +
      wire::encode_frame(wire::FrameType::kThreadTrace, body));
  std::vector<ThreadTrace> loaded{make_trace(3, 0)};
  EXPECT_FALSE(load_traces(buf, &loaded));
  EXPECT_TRUE(loaded.empty());
}

// A known u64 field (the thread index) rewritten as kBytes, or as a u64
// four bytes wide, rejects the stream instead of reading as some value.
TEST(TraceIo, RejectsMistypedKnownFields) {
  const ThreadTrace trace = make_trace(4, 0x1000);
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(1, 1);
  hw.u64(2, trace.size());
  std::string body;
  wire::FieldWriter bw(&body);
  bw.u64(1, 0);
  bw.u64(2, trace.size());
  bw.bytes(4, encode_events(trace));
  const auto loads = [&](const std::string& thread_body) {
    std::stringstream buf(
        wire::encode_frame(wire::FrameType::kTraceHeader, header) +
        wire::encode_frame(wire::FrameType::kThreadTrace, thread_body));
    std::vector<ThreadTrace> loaded;
    const bool ok = load_traces(buf, &loaded);
    EXPECT_EQ(ok, !loaded.empty());
    return ok;
  };
  EXPECT_TRUE(loads(body));
  std::string as_bytes = body;
  as_bytes[2] = static_cast<char>(wire::FieldKind::kBytes);
  EXPECT_FALSE(loads(as_bytes));
  std::string narrow = body;
  narrow[4] = 4;  // value length 8 -> 4
  narrow.erase(8 + 4, 4);
  EXPECT_FALSE(loads(narrow));
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

// --- the codec on one CPU and on all of them ------------------------------

/// Pins the calling thread to the first CPU of its affinity mask while it
/// lives, so save_traces and load_traces run on one slot and start no
/// thread; the mask is restored on destruction.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// CPUs in the calling thread's affinity mask.
int affinity_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  return sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
}

/// `threads` threads of varied events and lengths; every third is empty
/// unless `all_busy`.
std::vector<ThreadTrace> many_threads(std::size_t threads,
                                      bool all_busy = false) {
  std::vector<ThreadTrace> traces;
  for (std::size_t t = 0; t < threads; ++t) {
    traces.push_back(t % 3 == 1 && !all_busy
                         ? ThreadTrace{}
                         : varied_trace(1 + (t * 389) % 3000,
                                        0x10000 * (t + 1)));
  }
  return traces;
}

std::string saved(const std::vector<ThreadTrace>& traces) {
  std::stringstream buf;
  EXPECT_TRUE(save_traces(buf, traces));
  return buf.str();
}

bool same_traces(const std::vector<ThreadTrace>& a,
                 const std::vector<ThreadTrace>& b) {
  const auto same = [](const TraceEvent& x, const TraceEvent& y) {
    return x.addr == y.addr && x.think_cycles == y.think_cycles &&
           x.type == y.type && x.size == y.size;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!std::equal(a[t].begin(), a[t].end(), b[t].begin(), b[t].end(),
                    same)) {
      return false;
    }
  }
  return true;
}

// How many CPUs the codec runs on changes neither the bytes it writes nor
// what it reads back: each trace set is saved and loaded with the test
// thread pinned to one CPU, then on every CPU it may use.
TEST(TraceIo, BytesAndLoadsDoNotDependOnCpus) {
  for (const std::size_t threads : {0, 1, 3, 8, 64}) {
    const std::vector<ThreadTrace> traces = many_threads(threads);
    std::string one_cpu_bytes;
    std::vector<ThreadTrace> one_cpu_loaded;
    {
      OneCpu pin;
      ASSERT_TRUE(pin.pinned());
      ASSERT_EQ(affinity_cpus(), 1);
      one_cpu_bytes = saved(traces);
      std::stringstream in(one_cpu_bytes);
      ASSERT_TRUE(load_traces(in, &one_cpu_loaded)) << threads;
    }
    const std::string all_cpus_bytes = saved(traces);
    EXPECT_EQ(one_cpu_bytes, all_cpus_bytes) << threads << " threads";
    std::stringstream in(all_cpus_bytes);
    std::vector<ThreadTrace> all_cpus_loaded;
    ASSERT_TRUE(load_traces(in, &all_cpus_loaded)) << threads;
    EXPECT_TRUE(same_traces(one_cpu_loaded, traces)) << threads;
    EXPECT_TRUE(same_traces(all_cpus_loaded, traces)) << threads;
  }
}

// A fault in any thread frame rejects the whole stream on one CPU and on
// all of them: in the first frame, in the first frame past the first batch
// of slots (one per CPU) and in the last frame, whether the frame fails its
// CRC, has a torn field sequence or holds a bad event.
TEST(TraceIo, RejectsFaultInAnyFrame) {
  const std::size_t threads =
      std::max<std::size_t>(9, static_cast<std::size_t>(affinity_cpus()) + 2);
  const std::string clean = saved(many_threads(threads, /*all_busy=*/true));
  // Each thread frame's start, after the header frame.
  std::vector<std::size_t> frame_at;
  for (std::size_t at = 0; at < clean.size();) {
    wire::Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::parse_frame(std::string_view(clean).substr(at), &frame,
                                &consumed),
              wire::FrameError::kOk);
    if (frame.type == wire::FrameType::kThreadTrace) frame_at.push_back(at);
    at += consumed;
  }
  ASSERT_EQ(frame_at.size(), threads);

  enum class Fault { kCrc, kTornField, kBadEvent };
  for (const bool one_cpu : {true, false}) {
    std::optional<OneCpu> pin;
    if (one_cpu) {
      pin.emplace();
      ASSERT_TRUE(pin->pinned());
    }
    const auto first_past_batch = static_cast<std::size_t>(affinity_cpus());
    for (const std::size_t frame : {std::size_t{0}, first_past_batch,
                                    threads - 1}) {
      for (const Fault fault :
           {Fault::kCrc, Fault::kTornField, Fault::kBadEvent}) {
        std::string bytes = clean;
        const std::size_t at = frame_at[frame];
        const std::size_t payload = at + wire::kFrameHeaderSize;
        std::uint32_t len = 0;
        std::memcpy(&len, bytes.data() + at + 8, 4);
        // Payload layout: fields 1 and 2 (16 bytes each), then field 4's
        // header, whose u32 length sits at offset 36, and its events.
        switch (fault) {
          case Fault::kCrc: bytes[payload + 40] ^= 0x01; break;
          case Fault::kTornField: bytes[payload + 36] ^= 0x01; break;
          case Fault::kBadEvent: bytes[payload + 40] |= 0x20; break;
        }
        if (fault != Fault::kCrc) {
          const std::uint32_t crc = wire::crc32(bytes.data() + payload, len);
          for (int k = 0; k < 4; ++k) {
            bytes[at + 12 + k] = static_cast<char>(crc >> (8 * k));
          }
        }
        std::stringstream in(bytes);
        std::vector<ThreadTrace> loaded{make_trace(3, 0)};
        EXPECT_FALSE(load_traces(in, &loaded))
            << "frame " << frame << " fault " << static_cast<int>(fault)
            << (one_cpu ? " on one CPU" : " on all CPUs");
        EXPECT_TRUE(loaded.empty());
      }
    }
  }
}

/// Makes every allocation of at least `bytes` throw std::bad_alloc while it
/// lives.
class FailingAllocations {
 public:
  explicit FailingAllocations(std::size_t bytes) {
    g_fail_new_from.store(bytes, std::memory_order_relaxed);
  }
  ~FailingAllocations() {
    g_fail_new_from.store(SIZE_MAX, std::memory_order_relaxed);
  }
  FailingAllocations(const FailingAllocations&) = delete;
  FailingAllocations& operator=(const FailingAllocations&) = delete;
};

// An exception thrown while a frame is encoded or decoded reaches the
// caller of save_traces or load_traces, on one CPU and on all of them. The
// first thread is small and the second large, so on more than one CPU the
// failing allocation is made on a worker thread.
TEST(TraceIo, AllocationFailuresReachTheCaller) {
  std::vector<ThreadTrace> traces{varied_trace(10, 0x1000)};
  for (int t = 1; t < 6; ++t) traces.push_back(varied_trace(200000, 0x1000));
  const std::string bytes = saved(traces);
  // A large thread's payload is about 1.2 MB and its decoded events 3.2 MB;
  // the saved stream is copied into `in` before a limit is set, so the
  // limits below fail only those allocations.
  for (const bool one_cpu : {true, false}) {
    std::optional<OneCpu> pin;
    if (one_cpu) {
      pin.emplace();
      ASSERT_TRUE(pin->pinned());
    }
    std::stringstream in(bytes);
    std::vector<ThreadTrace> loaded;
    {
      FailingAllocations fail(3 << 20);
      EXPECT_THROW(load_traces(in, &loaded), std::bad_alloc);
    }
    EXPECT_TRUE(loaded.empty());
    std::stringstream out;
    {
      FailingAllocations fail(512 << 10);
      EXPECT_THROW(save_traces(out, traces), std::bad_alloc);
    }
  }
}

}  // namespace
}  // namespace pred
