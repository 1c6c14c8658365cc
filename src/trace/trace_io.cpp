#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
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

}  // namespace

std::string pack_events(const ThreadTrace& trace) {
  std::string out;
  out.reserve(trace.size() * sizeof(WireEvent));
  for (const TraceEvent& ev : trace) {
    WireEvent wire{static_cast<std::uint64_t>(ev.addr), ev.think_cycles,
                   static_cast<std::uint8_t>(ev.type), ev.size, 0};
    out.append(reinterpret_cast<const char*>(&wire), sizeof wire);
  }
  return out;
}

bool unpack_events(std::string_view bytes, ThreadTrace* out) {
  if (bytes.size() % sizeof(WireEvent) != 0) return false;
  const std::size_t n = bytes.size() / sizeof(WireEvent);
  out->clear();
  out->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WireEvent wire;
    std::memcpy(&wire, bytes.data() + i * sizeof(WireEvent), sizeof wire);
    TraceEvent ev;
    ev.addr = static_cast<Address>(wire.addr);
    ev.think_cycles = wire.think;
    ev.type = wire.type == 0 ? AccessType::kRead : AccessType::kWrite;
    ev.size = wire.size;
    out->push_back(ev);
  }
  return true;
}

bool save_traces(std::ostream& out, const std::vector<ThreadTrace>& traces) {
  std::string header;
  wire::FieldWriter hw(&header);
  hw.u64(kFieldThreadCount, traces.size());
  hw.u64(kFieldTotalEvents, total_events(traces));
  const std::string hframe =
      wire::encode_frame(wire::FrameType::kTraceHeader, header);
  out.write(hframe.data(), static_cast<std::streamsize>(hframe.size()));
  if (!out.good()) return false;

  for (std::size_t t = 0; t < traces.size(); ++t) {
    std::string payload;
    wire::FieldWriter fw(&payload);
    fw.u64(kFieldThreadIndex, t);
    fw.u64(kFieldEventCount, traces[t].size());
    fw.bytes(kFieldEvents, pack_events(traces[t]));
    const std::string frame =
        wire::encode_frame(wire::FrameType::kThreadTrace, payload);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (!out.good()) return false;
  }
  return out.good();
}

bool save_traces_file(const std::string& path,
                      const std::vector<ThreadTrace>& traces) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out.is_open() && save_traces(out, traces);
}

bool load_traces(std::istream& in, std::vector<ThreadTrace>* traces) {
  traces->clear();
  wire::Frame frame;
  if (wire::read_frame(in, &frame) != wire::FrameError::kOk ||
      frame.type != wire::FrameType::kTraceHeader) {
    return false;
  }
  const auto threads_field =
      wire::FieldReader::find(frame.payload, kFieldThreadCount);
  if (!threads_field) return false;
  const std::uint64_t threads = threads_field->as_u64();

  // The header's count is untrusted: threads are appended as their frames
  // arrive, in the index order save_traces writes them.
  std::vector<ThreadTrace> loaded;
  for (std::uint64_t i = 0; i < threads; ++i) {
    if (wire::read_frame(in, &frame) != wire::FrameError::kOk ||
        frame.type != wire::FrameType::kThreadTrace) {
      return false;
    }
    const auto index = wire::FieldReader::find(frame.payload, kFieldThreadIndex);
    const auto count = wire::FieldReader::find(frame.payload, kFieldEventCount);
    const auto events = wire::FieldReader::find(frame.payload, kFieldEvents);
    if (!index || !count || !events || index->as_u64() != i) return false;
    ThreadTrace& slot = loaded.emplace_back();
    if (!unpack_events(events->bytes, &slot)) return false;
    if (slot.size() != count->as_u64()) return false;
  }
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
