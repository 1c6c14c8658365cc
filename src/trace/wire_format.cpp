#include "trace/wire_format.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>

namespace pred::wire {

const char* to_string(FrameError e) {
  switch (e) {
    case FrameError::kOk: return "ok";
    case FrameError::kBadMagic: return "bad-magic";
    case FrameError::kVersionSkew: return "version-skew";
    case FrameError::kTruncated: return "truncated";
    case FrameError::kBadCrc: return "bad-crc";
  }
  return "?";
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

// tables[0] is the bytewise table of the reflected IEEE polynomial;
// tables[k][b] is the CRC of byte b followed by k zero bytes, so sixteen
// lookups fold sixteen input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

inline constexpr CrcTables kCrcTables = make_crc_tables();

void store_u16(char* p, std::uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
}

void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void store_u64(char* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Appends a field's (id, kind, length) header and `len` value bytes to
/// `out`, and returns the value bytes.
char* append_field(std::string* out, std::uint16_t id, FieldKind kind,
                   std::size_t len) {
  const std::size_t at = out->size();
  out->resize(at + 8 + len);
  char* p = out->data() + at;
  store_u16(p, id);
  store_u16(p + 2, static_cast<std::uint16_t>(kind));
  store_u32(p + 4, static_cast<std::uint32_t>(len));
  return p + 8;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (; size >= 16; size -= 16, p += 16) {
    const std::uint32_t a = get_u32(p) ^ c;
    const std::uint32_t b = get_u32(p + 4);
    const std::uint32_t d = get_u32(p + 8);
    const std::uint32_t e = get_u32(p + 12);
    c = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^
        t[13][(a >> 16) & 0xffu] ^ t[12][a >> 24] ^
        t[11][b & 0xffu] ^ t[10][(b >> 8) & 0xffu] ^
        t[9][(b >> 16) & 0xffu] ^ t[8][b >> 24] ^
        t[7][d & 0xffu] ^ t[6][(d >> 8) & 0xffu] ^
        t[5][(d >> 16) & 0xffu] ^ t[4][d >> 24] ^
        t[3][e & 0xffu] ^ t[2][(e >> 8) & 0xffu] ^
        t[1][(e >> 16) & 0xffu] ^ t[0][e >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::array<char, kFrameHeaderSize> frame_header(FrameType type,
                                                std::string_view payload) {
  std::array<char, kFrameHeaderSize> h;
  store_u32(h.data(), kFrameMagic);
  store_u16(h.data() + 4, kWireVersion);
  store_u16(h.data() + 6, static_cast<std::uint16_t>(type));
  store_u32(h.data() + 8, static_cast<std::uint32_t>(payload.size()));
  store_u32(h.data() + 12, crc32(payload));
  return h;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  const auto header = frame_header(type, payload);
  out.append(header.data(), header.size());
  out.append(payload);
  return out;
}

bool write_frame(std::ostream& out, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) return false;
  const auto header = frame_header(type, payload);
  out.write(header.data(), header.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return out.good();
}

FrameError parse_frame(std::string_view bytes, Frame* out,
                       std::size_t* consumed) {
  *consumed = 0;
  if (bytes.size() < kFrameHeaderSize) {
    // Not enough to even validate the magic — but if what we do have
    // already disagrees, say so (a mispositioned reader should not wait
    // forever for "more" of a frame that will never materialize).
    if (bytes.size() >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
      if (get_u32(p) != kFrameMagic) return FrameError::kBadMagic;
    }
    return FrameError::kTruncated;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (get_u32(p) != kFrameMagic) return FrameError::kBadMagic;
  const std::uint16_t version = get_u16(p + 4);
  if (version > kWireVersion || version == 0) return FrameError::kVersionSkew;
  const std::uint16_t type = get_u16(p + 6);
  const std::uint32_t length = get_u32(p + 8);
  const std::uint32_t crc = get_u32(p + 12);
  if (bytes.size() < kFrameHeaderSize + length) return FrameError::kTruncated;
  const std::string_view payload = bytes.substr(kFrameHeaderSize, length);
  if (crc32(payload) != crc) return FrameError::kBadCrc;
  out->type = static_cast<FrameType>(type);
  out->payload.assign(payload);
  *consumed = kFrameHeaderSize + length;
  return FrameError::kOk;
}

FrameError read_frame(std::istream& in, Frame* out) {
  std::uint32_t crc = 0;
  const FrameError e = read_frame_unchecked(in, out, &crc);
  return e == FrameError::kOk ? check_crc(out->payload, crc) : e;
}

FrameError read_frame_unchecked(std::istream& in, Frame* out,
                                std::uint32_t* crc) {
  char header[kFrameHeaderSize];
  in.read(header, sizeof header);
  if (in.gcount() == 0) return FrameError::kTruncated;
  if (static_cast<std::size_t>(in.gcount()) < sizeof header) {
    const auto* p = reinterpret_cast<const unsigned char*>(header);
    if (in.gcount() >= 4 && get_u32(p) != kFrameMagic) {
      return FrameError::kBadMagic;
    }
    return FrameError::kTruncated;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(header);
  if (get_u32(p) != kFrameMagic) return FrameError::kBadMagic;
  const std::uint16_t version = get_u16(p + 4);
  if (version > kWireVersion || version == 0) return FrameError::kVersionSkew;
  const std::uint32_t length = get_u32(p + 8);
  // The header's length is untrusted until its bytes arrive. Size the
  // payload at once only when the stream already holds that many bytes
  // (in_avail is exact for in-memory streams); otherwise read in bounded
  // chunks, so a short stream costs memory in proportion to what it holds,
  // not to what it claims.
  constexpr std::size_t kChunk = 64 * 1024;
  const std::streamsize avail = in.rdbuf()->in_avail();
  const std::size_t step =
      avail >= 0 && static_cast<std::size_t>(avail) >= length ? length
                                                               : kChunk;
  std::string& payload = out->payload;
  payload.clear();
  while (payload.size() < length) {
    const std::size_t have = payload.size();
    const std::size_t want = std::min<std::size_t>(step, length - have);
    payload.resize(have + want);
    in.read(payload.data() + have, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(in.gcount()) < want) {
      return FrameError::kTruncated;
    }
  }
  out->type = static_cast<FrameType>(get_u16(p + 6));
  *crc = get_u32(p + 12);
  return FrameError::kOk;
}

FrameError check_crc(std::string_view payload, std::uint32_t crc) {
  return crc32(payload) == crc ? FrameError::kOk : FrameError::kBadCrc;
}

void FieldWriter::u64(std::uint16_t id, std::uint64_t v) {
  store_u64(append_field(out_, id, FieldKind::kU64, 8), v);
}

void FieldWriter::bytes(std::uint16_t id, std::string_view v) {
  std::copy(v.begin(), v.end(), bytes_space(id, v.size()));
}

char* FieldWriter::bytes_space(std::uint16_t id, std::size_t len) {
  return append_field(out_, id, FieldKind::kBytes, len);
}

std::optional<std::uint64_t> Field::as_u64() const {
  if (kind != FieldKind::kU64 || bytes.size() != 8) return std::nullopt;
  return get_u64(reinterpret_cast<const unsigned char*>(bytes.data()));
}

std::optional<Field> FieldReader::next() {
  while (!rest_.empty()) {
    if (rest_.size() < 8) {
      malformed_ = true;
      return std::nullopt;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(rest_.data());
    Field f;
    f.id = get_u16(p);
    const std::uint16_t kind = get_u16(p + 2);
    const std::uint32_t len = get_u32(p + 4);
    if (rest_.size() < 8 + static_cast<std::size_t>(len)) {
      malformed_ = true;
      return std::nullopt;
    }
    f.bytes = rest_.substr(8, len);
    rest_.remove_prefix(8 + len);
    // Unknown kinds are skipped wholesale (their length still delimits
    // them); unknown ids are the *caller's* business — they are returned
    // so lookups can ignore them, which is what makes payloads extensible.
    if (kind != static_cast<std::uint16_t>(FieldKind::kU64) &&
        kind != static_cast<std::uint16_t>(FieldKind::kBytes)) {
      continue;
    }
    f.kind = static_cast<FieldKind>(kind);
    return f;
  }
  return std::nullopt;
}

std::optional<Field> FieldReader::find(std::string_view payload,
                                       std::uint16_t id) {
  FieldReader r(payload);
  while (auto f = r.next()) {
    if (f->id == id) return f;
  }
  return std::nullopt;
}

}  // namespace pred::wire
