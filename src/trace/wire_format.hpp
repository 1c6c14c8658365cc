// Versioned binary framing shared by every PREDATOR wire stream (trace
// files, snapshot publication, collector transports).
//
// Layer 1 — frames. Every frame is self-delimiting and self-checking:
//
//   magic    u32 = 0x50524652 ("PRFR")
//   version  u16 = kWireVersion (2)
//   type     u16   FrameType
//   length   u32   payload bytes that follow
//   crc32    u32   CRC-32 (IEEE 802.3) of the payload
//   payload  length bytes
//
// The CRC uses the reflected IEEE polynomial 0xEDB88320 and folds sixteen
// bytes per step (slicing-by-16 over tables built at compile time), reading
// words little-endian, so the checksum does not depend on the host.
//
// A reader positioned at a frame boundary can always either consume the
// frame or fail with a precise reason (bad magic, unsupported version,
// truncation, payload corruption) — the regression suite in
// tests/test_wire_format.cpp exercises each path. Because frames carry
// their own magic, a stream of frames needs no file-level preamble, which
// is what lets the same framing serve both seekable trace files and
// socket/pipe transports.
//
// Layer 2 — tagged fields. Frame payloads are a flat sequence of
// (id u16, kind u16, length u32, bytes) fields. Readers look fields up by
// id and skip ids they do not understand, so new producers can add fields
// without breaking old consumers: the forward-compatibility contract that
// lets a v2.x collector ingest snapshots from newer clients. Nested
// messages (snapshot line entries, ring stats) are encoded as kBytes
// fields whose payload is itself a field sequence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pred::wire {

inline constexpr std::uint32_t kFrameMagic = 0x50524652u;  // "PRFR"
/// Bumped when the frame header itself changes shape. Payload evolution
/// goes through new field ids instead (skippable by old readers).
inline constexpr std::uint16_t kWireVersion = 2;

enum class FrameType : std::uint16_t {
  kTraceHeader = 1,  ///< trace stream preamble (thread count, totals)
  kThreadTrace = 2,  ///< one thread's access trace
  kHello = 3,        ///< client introduction (uid, pid) on a transport
  kSnapshot = 4,     ///< one encoded MonitorSnapshot
  kGoodbye = 5,      ///< orderly client disconnect
  kRepairPlan = 6,   ///< one encoded RepairPlan (repair/plan_codec.hpp)
};

enum class FrameError : std::uint8_t {
  kOk = 0,
  kBadMagic,     ///< stream is not positioned at a frame
  kVersionSkew,  ///< frame from a newer incompatible framing revision
  kTruncated,    ///< stream ended inside the header or payload
  kBadCrc,       ///< payload bytes do not match the header checksum
};

const char* to_string(FrameError e);

struct Frame {
  FrameType type = FrameType::kTraceHeader;
  std::string payload;
};

/// CRC-32 (IEEE 802.3, reflected) over `size` bytes.
std::uint32_t crc32(const void* data, std::size_t size);
inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// Fixed encoded size of the frame header preceding each payload.
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Largest payload the header's u32 length field can describe.
inline constexpr std::size_t kMaxPayload = UINT32_MAX;

/// The kFrameHeaderSize bytes that precede `payload` in its frame, its
/// CRC-32 included. The payload must not exceed kMaxPayload.
std::array<char, kFrameHeaderSize> frame_header(FrameType type,
                                                std::string_view payload);

/// Header + payload as a byte string, ready for a file or a pipe. The
/// payload must not exceed kMaxPayload.
std::string encode_frame(FrameType type, std::string_view payload);

/// Writes the frame header, then `payload` in place, with no copy of the
/// payload. Returns false on a stream error, and without writing a byte
/// when the payload exceeds kMaxPayload.
bool write_frame(std::ostream& out, FrameType type, std::string_view payload);

/// Reads one frame from a stream positioned at a frame boundary. The
/// payload is read into `out->payload`, reusing its capacity, so a caller
/// that reads many frames into one Frame allocates once; on an error
/// `*out` holds unspecified contents. read_frame_unchecked, then
/// check_crc.
FrameError read_frame(std::istream& in, Frame* out);

/// The read half of read_frame: reads the frame but leaves its payload
/// unchecked, storing the header's checksum in `*crc`, so the check can
/// run on another thread. Returns every error read_frame does but kBadCrc.
FrameError read_frame_unchecked(std::istream& in, Frame* out,
                                std::uint32_t* crc);

/// The check half of read_frame: kOk when `payload`'s CRC-32 is `crc`,
/// else kBadCrc.
FrameError check_crc(std::string_view payload, std::uint32_t crc);

/// Parses one frame out of `bytes`. On kOk, `*consumed` is the total
/// encoded size. kTruncated means "need more bytes" — the incremental
/// contract FrameStreamParser (src/collect/transport.hpp) relies on.
FrameError parse_frame(std::string_view bytes, Frame* out,
                       std::size_t* consumed);

// ---------------------------------------------------------------------------
// Tagged fields
// ---------------------------------------------------------------------------

enum class FieldKind : std::uint16_t {
  kU64 = 1,    ///< little-endian u64 (u32s widen on the wire)
  kBytes = 2,  ///< opaque bytes / nested field sequence / string
};

/// Appends tagged fields to a payload string.
class FieldWriter {
 public:
  explicit FieldWriter(std::string* out) : out_(out) {}

  void u64(std::uint16_t id, std::uint64_t v);
  void bytes(std::uint16_t id, std::string_view v);
  void str(std::uint16_t id, std::string_view v) { bytes(id, v); }
  /// Appends a kBytes field header for `len` bytes and returns the `len`
  /// bytes after it for the caller to fill: a field packed in place.
  /// `len` must not exceed kMaxPayload.
  char* bytes_space(std::uint16_t id, std::size_t len);

 private:
  std::string* out_;
};

/// One decoded field view into the payload buffer.
struct Field {
  std::uint16_t id = 0;
  FieldKind kind = FieldKind::kU64;
  std::string_view bytes;  ///< raw value bytes (8 for kU64)

  /// The value of an 8-byte kU64 field; nullopt for any other kind or
  /// width, which decoders reject for an id they know as a u64.
  std::optional<std::uint64_t> as_u64() const;
  /// Stores as_u64(), cast to T, in `*out`; false, leaving `*out` as it
  /// was, when as_u64() is empty.
  template <typename T>
  bool read_u64(T* out) const {
    const std::optional<std::uint64_t> v = as_u64();
    if (v) *out = static_cast<T>(*v);
    return v.has_value();
  }
};

/// Iterates the fields of a payload, skipping unknown kinds/ids gracefully.
/// Malformed sequences (truncated field header or value) stop iteration and
/// set malformed().
class FieldReader {
 public:
  explicit FieldReader(std::string_view payload) : rest_(payload) {}

  /// Next field, or nullopt at end-of-payload / on malformed input.
  std::optional<Field> next();
  bool malformed() const { return malformed_; }

  /// Convenience: scan `payload` for the first field with `id`.
  static std::optional<Field> find(std::string_view payload, std::uint16_t id);

 private:
  std::string_view rest_;
  bool malformed_ = false;
};

}  // namespace pred::wire
