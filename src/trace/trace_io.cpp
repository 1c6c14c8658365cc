#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>

#include "trace/wire_format.hpp"

namespace pred {

namespace {

struct WireEvent {
  std::uint64_t addr;
  std::uint32_t think;
  std::uint8_t type;
  std::uint8_t size;
  std::uint16_t pad;
};
static_assert(sizeof(WireEvent) == 16);

// Field ids inside kTraceHeader / kThreadTrace payloads.
enum : std::uint16_t {
  kFieldThreadCount = 1,
  kFieldTotalEvents = 2,
  kFieldThreadIndex = 1,
  kFieldEventCount = 2,
  kFieldEvents = 3,
};

/// Payload bytes of a thread frame besides its packed events: three field
/// headers and two u64 values.
constexpr std::size_t kThreadFieldBytes = 3 * 8 + 2 * 8;
/// Most events one thread frame's u32 length field can describe.
constexpr std::size_t kMaxFrameEvents =
    (wire::kMaxPayload - kThreadFieldBytes) / sizeof(WireEvent);

/// Packs `trace` as wire records into the trace.size() * 16 bytes at `out`.
void pack_into(const ThreadTrace& trace, char* out) {
  for (const TraceEvent& ev : trace) {
    const WireEvent wire{static_cast<std::uint64_t>(ev.addr), ev.think_cycles,
                         static_cast<std::uint8_t>(ev.type), ev.size, 0};
    std::memcpy(out, &wire, sizeof wire);
    out += sizeof wire;
  }
}

/// The known fields of one trace payload. Ids 1 and 2 are u64s in both
/// frame types, kept at u64[id]; a thread frame's id 3 holds its events.
struct PayloadFields {
  std::optional<std::uint64_t> u64[3];
  std::optional<std::string_view> events;
};

/// Scans `payload` once. A torn field sequence, or a known id that repeats,
/// has another kind, or is a u64 not 8 bytes wide, rejects the payload;
/// unknown ids are skipped, so newer writers can annotate traces.
bool read_fields(std::string_view payload, bool thread_frame,
                 PayloadFields* out) {
  wire::FieldReader reader(payload);
  while (const auto f = reader.next()) {
    if (thread_frame && f->id == kFieldEvents) {
      if (f->kind != wire::FieldKind::kBytes || out->events) return false;
      out->events = f->bytes;
    } else if (f->id == 1 || f->id == 2) {
      std::optional<std::uint64_t>& slot = out->u64[f->id];
      if (f->kind != wire::FieldKind::kU64 || f->bytes.size() != 8 || slot) {
        return false;
      }
      slot = f->as_u64();
    }
  }
  return !reader.malformed();
}

}  // namespace

std::string pack_events(const ThreadTrace& trace) {
  std::string out(trace.size() * sizeof(WireEvent), '\0');
  pack_into(trace, out.data());
  return out;
}

bool unpack_events(std::string_view bytes, ThreadTrace* out) {
  out->clear();
  if (bytes.size() % sizeof(WireEvent) != 0) return false;
  const std::size_t n = bytes.size() / sizeof(WireEvent);
  out->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WireEvent wire;
    std::memcpy(&wire, bytes.data() + i * sizeof(WireEvent), sizeof wire);
    if (wire.type > 1 || wire.pad != 0) return false;
    TraceEvent ev;
    ev.addr = static_cast<Address>(wire.addr);
    ev.think_cycles = wire.think;
    ev.type = static_cast<AccessType>(wire.type);
    ev.size = wire.size;
    out->push_back(ev);
  }
  return true;
}

bool save_traces(std::ostream& out, const std::vector<ThreadTrace>& traces) {
  // One payload buffer serves every frame: each thread's events are packed
  // straight into it, and write_frame sends it without another copy.
  std::string payload;
  wire::FieldWriter fields(&payload);
  fields.u64(kFieldThreadCount, traces.size());
  fields.u64(kFieldTotalEvents, total_events(traces));
  if (!wire::write_frame(out, wire::FrameType::kTraceHeader, payload)) {
    return false;
  }
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const ThreadTrace& trace = traces[t];
    if (trace.size() > kMaxFrameEvents) return false;
    payload.clear();
    fields.u64(kFieldThreadIndex, t);
    fields.u64(kFieldEventCount, trace.size());
    pack_into(trace, fields.bytes_space(kFieldEvents,
                                        trace.size() * sizeof(WireEvent)));
    if (!wire::write_frame(out, wire::FrameType::kThreadTrace, payload)) {
      return false;
    }
  }
  return true;
}

bool save_traces_file(const std::string& path,
                      const std::vector<ThreadTrace>& traces) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out.is_open() && save_traces(out, traces);
}

bool load_traces(std::istream& in, std::vector<ThreadTrace>* traces) {
  traces->clear();
  wire::Frame frame;
  PayloadFields header;
  if (wire::read_frame(in, &frame) != wire::FrameError::kOk ||
      frame.type != wire::FrameType::kTraceHeader ||
      !read_fields(frame.payload, false, &header) ||
      !header.u64[kFieldThreadCount] || !header.u64[kFieldTotalEvents]) {
    return false;
  }

  // The header's counts are untrusted: threads are appended as their frames
  // arrive, in the index order save_traces writes them, and their event
  // counts must add up to the header's total.
  std::vector<ThreadTrace> loaded;
  std::uint64_t events = 0;
  for (std::uint64_t i = 0; i < *header.u64[kFieldThreadCount]; ++i) {
    PayloadFields body;
    if (wire::read_frame(in, &frame) != wire::FrameError::kOk ||
        frame.type != wire::FrameType::kThreadTrace ||
        !read_fields(frame.payload, true, &body) ||
        body.u64[kFieldThreadIndex] != i || !body.u64[kFieldEventCount] ||
        !body.events) {
      return false;
    }
    ThreadTrace& slot = loaded.emplace_back();
    if (!unpack_events(*body.events, &slot) ||
        slot.size() != *body.u64[kFieldEventCount]) {
      return false;
    }
    events += slot.size();
  }
  if (events != *header.u64[kFieldTotalEvents]) return false;
  *traces = std::move(loaded);
  return true;
}

bool load_traces_file(const std::string& path,
                      std::vector<ThreadTrace>* traces) {
  std::ifstream in(path, std::ios::binary);
  return in.is_open() && load_traces(in, traces);
}

std::size_t total_events(const std::vector<ThreadTrace>& traces) {
  std::size_t n = 0;
  for (const auto& t : traces) n += t.size();
  return n;
}

}  // namespace pred
