// Regression tests for the shared wire framing (trace/wire_format.hpp):
// the CRC-32 against its definition, every FrameError path (bad magic,
// version skew, truncation, CRC corruption), the incremental-parse
// contract FrameStreamParser relies on, and the tagged-field layer's
// unknown-field forward compatibility.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <vector>

#include "collect/transport.hpp"
#include "common/anon_mapping.hpp"
#include "trace/wire_format.hpp"

// Largest single allocation allowed while an AllocationCap is alive (0 =
// none): the replaced global operator new refuses anything bigger, so a
// test can show a decoder never sizes a buffer by a length it has not read.
namespace {
std::atomic<std::size_t> g_alloc_cap{0};
}  // namespace

void* operator new(std::size_t n) {
  const std::size_t cap = g_alloc_cap.load(std::memory_order_relaxed);
  if (cap != 0 && n > cap) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Every pointer reaching these came from the malloc-based new above; GCC
// cannot see that once standard new-expressions are inlined, and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pred {
namespace {

struct AllocationCap {
  explicit AllocationCap(std::size_t bytes) { g_alloc_cap.store(bytes); }
  ~AllocationCap() { g_alloc_cap.store(0); }
};

/// Hands out its bytes one at a time and never reports more available, the
/// way a pipe might, so read_frame cannot size a payload up front.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (next_ == bytes_.size()) return traits_type::eof();
    char* p = bytes_.data() + next_++;
    setg(p, p, p + 1);
    return traits_type::to_int_type(*p);
  }

 private:
  std::string bytes_;
  std::size_t next_ = 0;
};

using wire::Field;
using wire::FieldReader;
using wire::FieldWriter;
using wire::Frame;
using wire::FrameError;
using wire::FrameType;

std::string sample_payload() {
  std::string payload;
  FieldWriter w(&payload);
  w.u64(1, 0xdeadbeefcafe1234ull);
  w.str(2, "hello, wire");
  std::memcpy(w.bytes_space(3, 4), "fill", 4);
  return payload;
}

/// CRC-32 by its definition: the reflected IEEE polynomial applied one bit
/// at a time, with no tables.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

TEST(WireFormat, Crc32KnownAnswer) {
  EXPECT_EQ(wire::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(wire::crc32(""), 0u);
}

// crc32 folds 16 bytes per step and finishes bytewise: every length from
// 0 to 1100 at every start offset 0-15 covers each split between the two.
TEST(WireFormat, Crc32MatchesBitwiseReference) {
  std::vector<unsigned char> buf(1100 + 16);
  std::uint32_t x = 1;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(wire::crc32(p, len), bitwise_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(WireFormat, FrameRoundTrip) {
  const std::string payload = sample_payload();
  const std::string bytes = wire::encode_frame(FrameType::kSnapshot, payload);
  ASSERT_EQ(bytes.size(), wire::kFrameHeaderSize + payload.size());
  std::ostringstream written;
  ASSERT_TRUE(wire::write_frame(written, FrameType::kSnapshot, payload));
  EXPECT_EQ(written.str(), bytes);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::parse_frame(bytes, &frame, &consumed), FrameError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, FrameType::kSnapshot);
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireFormat, EmptyPayloadFrame) {
  const std::string bytes = wire::encode_frame(FrameType::kGoodbye, "");
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::parse_frame(bytes, &frame, &consumed), FrameError::kOk);
  EXPECT_EQ(frame.type, FrameType::kGoodbye);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireFormat, RejectsBadMagic) {
  std::string bytes = wire::encode_frame(FrameType::kHello, "x");
  bytes[0] ^= 0x5a;
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::parse_frame(bytes, &frame, &consumed),
            FrameError::kBadMagic);
}

TEST(WireFormat, RejectsVersionSkew) {
  std::string bytes = wire::encode_frame(FrameType::kHello, "x");
  bytes[4] = static_cast<char>(wire::kWireVersion + 1);  // version lo byte
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::parse_frame(bytes, &frame, &consumed),
            FrameError::kVersionSkew);
}

TEST(WireFormat, TruncationAtEveryPrefixLength) {
  const std::string bytes =
      wire::encode_frame(FrameType::kSnapshot, sample_payload());
  // Any strict prefix must report kTruncated — never a false kOk, never a
  // spurious corruption error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::parse_frame(std::string_view(bytes).substr(0, cut),
                                &frame, &consumed),
              FrameError::kTruncated)
        << "prefix length " << cut;
  }
}

TEST(WireFormat, RejectsPayloadCorruptionAnywhere) {
  const std::string clean =
      wire::encode_frame(FrameType::kSnapshot, sample_payload());
  // Flip one bit in each payload byte: the CRC must catch every one.
  for (std::size_t i = wire::kFrameHeaderSize; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] ^= 0x01;
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::parse_frame(bytes, &frame, &consumed),
              FrameError::kBadCrc)
        << "corrupt byte " << i;
  }
}

TEST(WireFormat, ReadFrameFromStream) {
  const std::string a = wire::encode_frame(FrameType::kHello, "a");
  const std::string b = wire::encode_frame(FrameType::kGoodbye, "bb");
  std::stringstream in(a + b);

  Frame frame;
  ASSERT_EQ(wire::read_frame(in, &frame), FrameError::kOk);
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.payload, "a");
  ASSERT_EQ(wire::read_frame(in, &frame), FrameError::kOk);
  EXPECT_EQ(frame.type, FrameType::kGoodbye);
  EXPECT_EQ(frame.payload, "bb");
  EXPECT_EQ(wire::read_frame(in, &frame), FrameError::kTruncated);
}

TEST(WireFormat, ReadFrameNeverAllocatesAnUnreadLength) {
  // A 16-byte header claiming a 4 GiB payload, then end of stream: the
  // reader must report truncation having allocated one bounded chunk.
  std::string header = wire::encode_frame(FrameType::kThreadTrace, "");
  for (int i = 8; i < 12; ++i) header[i] = '\xff';  // length field
  std::stringstream in(header);
  Frame frame;
  {
    AllocationCap cap(1 << 20);
    EXPECT_EQ(wire::read_frame(in, &frame), FrameError::kTruncated);
  }
  // A real payload spanning several chunks still reads back whole.
  std::string big(300 * 1024 + 7, 'x');
  big[123456] = 'y';
  TrickleBuf trickle(wire::encode_frame(FrameType::kThreadTrace, big));
  std::istream big_in(&trickle);
  ASSERT_EQ(wire::read_frame(big_in, &frame), FrameError::kOk);
  EXPECT_EQ(frame.payload, big);
}

// A payload over 4 GiB cannot be described by the header's u32 length:
// write_frame refuses it before reading a byte. The payload is a
// demand-zero mapping, so an untouched one never becomes resident.
TEST(WireFormat, WriteFrameRefusesPayloadOverFourGiB) {
  const AnonMapping huge((std::size_t{1} << 32) + 16);
  std::ostringstream out;
  EXPECT_FALSE(wire::write_frame(
      out, FrameType::kThreadTrace,
      std::string_view(static_cast<const char*>(huge.data()), huge.size())));
  EXPECT_TRUE(out.str().empty());
}

TEST(WireFormat, FieldRoundTripAndLookup) {
  const std::string payload = sample_payload();
  const auto u = FieldReader::find(payload, 1);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->as_u64(), 0xdeadbeefcafe1234ull);
  const auto s = FieldReader::find(payload, 2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->bytes, "hello, wire");
  EXPECT_FALSE(s->as_u64().has_value());  // a kBytes field has no u64
  const auto filled = FieldReader::find(payload, 3);
  ASSERT_TRUE(filled.has_value());
  EXPECT_EQ(filled->kind, wire::FieldKind::kBytes);
  EXPECT_EQ(filled->bytes, "fill");
  EXPECT_FALSE(FieldReader::find(payload, 99).has_value());
}

TEST(WireFormat, UnknownFieldsAreSkipped) {
  // A newer producer writes fields this reader has never heard of, of both
  // kinds, interleaved with known ones.
  std::string payload;
  FieldWriter w(&payload);
  w.u64(500, 7);
  w.u64(1, 42);
  w.str(501, std::string(1000, 'z'));
  w.str(2, "known");

  FieldReader r(payload);
  std::size_t fields = 0;
  while (auto f = r.next()) ++fields;
  EXPECT_EQ(fields, 4u);
  EXPECT_FALSE(r.malformed());
  EXPECT_EQ(FieldReader::find(payload, 1)->as_u64(), 42u);
  EXPECT_EQ(FieldReader::find(payload, 2)->bytes, "known");
}

TEST(WireFormat, MalformedFieldSequenceDetected) {
  std::string payload = sample_payload();
  payload.resize(payload.size() - 3);  // tear the last field's value
  FieldReader r(payload);
  while (r.next()) {
  }
  EXPECT_TRUE(r.malformed());
}

TEST(FrameStreamParser, ReassemblesAcrossArbitraryChunking) {
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    stream += wire::encode_frame(FrameType::kSnapshot,
                                 std::string(17 * (i + 1), 'a' + i));
  }
  // Feed in every chunk size from 1 byte to the whole stream.
  for (std::size_t chunk = 1; chunk <= stream.size(); chunk += 7) {
    FrameStreamParser parser;
    std::size_t frames = 0;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      parser.feed(std::string_view(stream).substr(
          off, std::min(chunk, stream.size() - off)));
      Frame frame;
      while (parser.next(&frame)) {
        EXPECT_EQ(frame.payload[0], 'a' + static_cast<char>(frames));
        ++frames;
      }
    }
    EXPECT_EQ(frames, 5u) << "chunk size " << chunk;
    EXPECT_FALSE(parser.poisoned());
    EXPECT_EQ(parser.pending_bytes(), 0u);
  }
}

TEST(FrameStreamParser, CorruptionPoisonsTheStream) {
  std::string stream = wire::encode_frame(FrameType::kHello, "first");
  stream += wire::encode_frame(FrameType::kSnapshot, "second");
  stream[wire::kFrameHeaderSize] ^= 0x40;  // corrupt the first payload

  FrameStreamParser parser;
  parser.feed(stream);
  Frame frame;
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_TRUE(parser.poisoned());
  EXPECT_EQ(parser.error(), FrameError::kBadCrc);
  // The good second frame is unreachable — framing trust is gone.
  parser.feed(wire::encode_frame(FrameType::kGoodbye, ""));
  EXPECT_FALSE(parser.next(&frame));
}

TEST(FrameStreamParser, MidFrameEofLeavesPendingBytes) {
  const std::string bytes = wire::encode_frame(FrameType::kSnapshot, "abc");
  FrameStreamParser parser;
  parser.feed(std::string_view(bytes).substr(0, bytes.size() - 1));
  Frame frame;
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_FALSE(parser.poisoned());
  EXPECT_GT(parser.pending_bytes(), 0u);
}

}  // namespace
}  // namespace pred
