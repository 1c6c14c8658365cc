#include "trace/trace_io.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <functional>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "trace/wire_format.hpp"

namespace pred {

namespace {

// Field ids inside kTraceHeader / kThreadTrace payloads. Id 3 held the
// 16-byte event records of the first v2 writers; it is neither written nor
// read, so a stream of them has no events field and fails to load.
enum : std::uint16_t {
  kFieldThreadCount = 1,
  kFieldTotalEvents = 2,
  kFieldThreadIndex = 1,
  kFieldEventCount = 2,
  kFieldEvents = 4,
};

/// Payload bytes of a thread frame besides its encoded events: three field
/// headers and two u64 values.
constexpr std::size_t kThreadFieldBytes = 3 * 8 + 2 * 8;

// The tag byte that starts each encoded event.
constexpr unsigned kTagWrite = 0x01;       // bit 0: the access type
constexpr unsigned kTagSizeShift = 1;      // bits 1-3: the size code
constexpr unsigned kSizeExplicit = 4;      // size code: a size byte follows
constexpr unsigned kTagThink = 0x10;       // bit 4: a think varint follows
constexpr unsigned kTagReserved = 0xe0;    // bits 5-7: always zero
/// Fewest bytes an event takes: its tag and a one-byte delta.
constexpr std::size_t kMinEventBytes = 2;

/// The size code of a `size`-byte access: 0-3 for 1, 2, 4 and 8 bytes.
unsigned size_code(std::uint8_t size) {
  switch (size) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
    default: return kSizeExplicit;
  }
}

std::uint64_t zigzag(std::uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

/// Bytes of the LEB128 varint of `v`: 1 to 10.
std::size_t varint_size(std::uint64_t v) {
  return 1 + (static_cast<std::size_t>(std::bit_width(v | 1)) - 1) / 7;
}

unsigned char* put_varint(unsigned char* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<unsigned char>(v | 0x80);
  *p++ = static_cast<unsigned char>(v);
  return p;
}

/// Bytes `trace` encodes to.
std::size_t encoded_size(const ThreadTrace& trace) {
  std::size_t bytes = 0;
  std::uint64_t prev = 0;
  for (const TraceEvent& ev : trace) {
    const auto addr = static_cast<std::uint64_t>(ev.addr);
    bytes += 1 + (size_code(ev.size) == kSizeExplicit) +
             varint_size(zigzag(addr - prev)) +
             (ev.think_cycles != 0 ? varint_size(ev.think_cycles) : 0);
    prev = addr;
  }
  return bytes;
}

/// Encodes `trace` into the encoded_size(trace) bytes at `out`.
void encode_into(const ThreadTrace& trace, char* out) {
  auto* p = reinterpret_cast<unsigned char*>(out);
  std::uint64_t prev = 0;
  for (const TraceEvent& ev : trace) {
    const auto addr = static_cast<std::uint64_t>(ev.addr);
    const unsigned code = size_code(ev.size);
    *p++ = static_cast<unsigned char>(
        (is_write(ev.type) ? kTagWrite : 0) | code << kTagSizeShift |
        (ev.think_cycles != 0 ? kTagThink : 0));
    if (code == kSizeExplicit) *p++ = ev.size;
    p = put_varint(p, zigzag(addr - prev));
    if (ev.think_cycles != 0) p = put_varint(p, ev.think_cycles);
    prev = addr;
  }
}

/// Reads the minimal LEB128 varint at `*p`, at most `max_bytes` long, and
/// advances `*p` past it. False when it runs past `end`, is longer than
/// `max_bytes`, ends in a zero byte after the first, or has bits above 64.
bool get_varint(const unsigned char** p, const unsigned char* end,
                unsigned max_bytes, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < max_bytes && *p != end; ++i) {
    const unsigned byte = *(*p)++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if (byte < 0x80) {
      if ((byte == 0 && i > 0) || (i == 9 && byte > 1)) return false;
      *out = v;
      return true;
    }
  }
  return false;
}

/// The known fields of one trace payload. Ids 1 and 2 are u64s in both
/// frame types, kept at u64[id]; a thread frame's kFieldEvents holds its
/// events.
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
      if (slot) return false;
      slot = f->as_u64();
      if (!slot) return false;
    }
  }
  return !reader.malformed();
}

/// Slots for `frames` thread frames: one per CPU in the calling thread's
/// affinity mask (one when the mask cannot be read), at most one per frame.
std::size_t frame_slots(std::uint64_t frames) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  const auto cpus = static_cast<std::uint64_t>(std::max(n, 1));
  return static_cast<std::size_t>(std::min(frames, cpus));
}

/// Runs a job per thread frame on a fixed set of slots. Frame i goes to
/// slot i % slots and a slot holds one frame at a time, so each slot's
/// buffers are reused frame after frame and memory does not grow with the
/// frame count. Every slot but 0 has a thread of its own; slot 0's jobs,
/// and those of a slot whose thread cannot start, run on the caller inside
/// wait(). With one slot no thread starts and the same code runs inline.
class FrameWorkers {
 public:
  FrameWorkers(std::size_t slots, std::function<void(std::size_t)> job)
      : job_(std::move(job)), slots_(slots) {
    for (std::size_t s = 1; s < slots; ++s) {
      try {
        slots_[s].thread = std::thread([this, s] { serve(s); });
      } catch (const std::system_error&) {
        // Slot s runs on the caller, like slot 0.
      }
    }
  }

  /// Drops the jobs no thread has started, waits for those running, and
  /// joins the threads.
  ~FrameWorkers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    for (Slot& slot : slots_) {
      slot.cv.notify_one();
      if (slot.thread.joinable()) slot.thread.join();
    }
  }

  FrameWorkers(const FrameWorkers&) = delete;
  FrameWorkers& operator=(const FrameWorkers&) = delete;

  /// Hands slot `s` the frame the caller has just put in it.
  void post(std::size_t s) {
    Slot& slot = slots_[s];
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot.posted = true;
    }
    slot.cv.notify_one();
  }

  /// Returns once slot `s`'s job is done, running it here if the slot has
  /// no thread; rethrows what the job threw.
  void wait(std::size_t s) {
    Slot& slot = slots_[s];
    if (!slot.thread.joinable()) {
      if (std::exchange(slot.posted, false)) job_(s);
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    slot.cv.wait(lock, [&] { return !slot.posted; });
    if (slot.error) std::rethrow_exception(std::exchange(slot.error, {}));
  }

 private:
  struct Slot {
    std::condition_variable cv;  ///< the caller and the thread, in turn
    bool posted = false;         ///< guarded by mu_
    std::exception_ptr error;    ///< what the last job threw
    std::thread thread;
  };

  void serve(std::size_t s) {
    Slot& slot = slots_[s];
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      slot.cv.wait(lock, [&] { return slot.posted || stop_; });
      if (stop_) return;
      lock.unlock();
      try {
        job_(s);
      } catch (...) {
        slot.error = std::current_exception();
      }
      lock.lock();
      slot.posted = false;
      slot.cv.notify_one();
    }
  }

  const std::function<void(std::size_t)> job_;
  std::mutex mu_;
  bool stop_ = false;  ///< guarded by mu_
  std::vector<Slot> slots_;
};

}  // namespace

std::string encode_events(const ThreadTrace& trace) {
  std::string out(encoded_size(trace), '\0');
  encode_into(trace, out.data());
  return out;
}

bool decode_events(std::string_view bytes, std::uint64_t count,
                   ThreadTrace* out) {
  out->clear();
  if (count > bytes.size() / kMinEventBytes) return false;
  out->reserve(count);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto* end = p + bytes.size();
  std::uint64_t addr = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (p == end) return false;
    const unsigned tag = *p++;
    const unsigned code = (tag >> kTagSizeShift) & 7;
    if ((tag & kTagReserved) != 0 || code > kSizeExplicit) return false;
    TraceEvent ev;
    ev.type = (tag & kTagWrite) ? AccessType::kWrite : AccessType::kRead;
    if (code == kSizeExplicit) {
      if (p == end || size_code(*p) != kSizeExplicit) return false;
      ev.size = *p++;
    } else {
      ev.size = static_cast<std::uint8_t>(1u << code);
    }
    std::uint64_t delta = 0;
    if (!get_varint(&p, end, 10, &delta)) return false;
    addr += unzigzag(delta);
    ev.addr = static_cast<Address>(addr);
    if (tag & kTagThink) {
      std::uint64_t think = 0;
      if (!get_varint(&p, end, 5, &think) || think == 0 ||
          think > UINT32_MAX) {
        return false;
      }
      ev.think_cycles = static_cast<std::uint32_t>(think);
    }
    out->push_back(ev);
  }
  return p == end;
}

bool save_traces(std::ostream& out, const std::vector<ThreadTrace>& traces) {
  std::string header;
  wire::FieldWriter fields(&header);
  fields.u64(kFieldThreadCount, traces.size());
  fields.u64(kFieldTotalEvents, total_events(traces));
  if (!wire::write_frame(out, wire::FrameType::kTraceHeader, header)) {
    return false;
  }

  // Each slot sizes a thread's events, encodes them straight into its
  // reused payload buffer and checksums the frame; the frames are written
  // here in index order, without another copy, and a slot takes its next
  // thread once its frame is written. A slot's buffer is freed with its
  // last frame, so the stream's growth towards its final size does not
  // meet every slot's buffer at once.
  struct Encoded {
    std::size_t thread = 0;
    bool fits = false;
    std::array<char, wire::kFrameHeaderSize> header{};
    std::string payload;
  };
  const std::size_t slots = frame_slots(traces.size());
  std::vector<Encoded> encoded(slots);
  FrameWorkers workers(slots, [&](std::size_t s) {
    Encoded& e = encoded[s];
    const ThreadTrace& trace = traces[e.thread];
    const std::size_t bytes = encoded_size(trace);
    e.fits = bytes <= wire::kMaxPayload - kThreadFieldBytes;
    if (!e.fits) return;
    e.payload.clear();
    wire::FieldWriter thread_fields(&e.payload);
    thread_fields.u64(kFieldThreadIndex, e.thread);
    thread_fields.u64(kFieldEventCount, trace.size());
    encode_into(trace, thread_fields.bytes_space(kFieldEvents, bytes));
    e.header = wire::frame_header(wire::FrameType::kThreadTrace, e.payload);
  });
  for (std::size_t s = 0; s < slots; ++s) {
    encoded[s].thread = s;
    workers.post(s);
  }
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const std::size_t s = t % slots;
    workers.wait(s);
    Encoded& e = encoded[s];
    if (!e.fits) return false;
    out.write(e.header.data(), e.header.size());
    out.write(e.payload.data(), static_cast<std::streamsize>(e.payload.size()));
    if (!out.good()) return false;
    if (t + slots < traces.size()) {
      e.thread = t + slots;
      workers.post(s);
    } else {
      std::string().swap(e.payload);
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

  // Thread frames are read here, in index order, each into the reused
  // frame buffer of its slot, where its CRC check, field parse and decode
  // run; the decoded threads are collected in order, and a slot takes its
  // next frame once its last is collected. A slot frees its buffer once
  // it has decoded its last frame, so the decoded threads do not meet
  // every slot's buffer at once. The header's counts are
  // untrusted: threads are appended as their frames arrive, in the index
  // order save_traces writes them, and their event counts must add up to
  // the header's total.
  struct Decoded {
    std::uint64_t index = 0;
    wire::Frame frame;
    std::uint32_t crc = 0;
    bool ok = false;
    ThreadTrace trace;
  };
  const std::uint64_t threads = *header.u64[kFieldThreadCount];
  const std::size_t slots = frame_slots(threads);
  std::vector<Decoded> decoded(slots);
  std::vector<ThreadTrace> loaded;
  std::uint64_t events = 0;
  FrameWorkers workers(slots, [&](std::size_t s) {
    Decoded& d = decoded[s];
    PayloadFields body;
    d.ok = wire::check_crc(d.frame.payload, d.crc) == wire::FrameError::kOk &&
           read_fields(d.frame.payload, true, &body) &&
           body.u64[kFieldThreadIndex] == d.index &&
           body.u64[kFieldEventCount] && body.events &&
           decode_events(*body.events, *body.u64[kFieldEventCount], &d.trace);
    if (d.index + slots >= threads) std::string().swap(d.frame.payload);
  });
  const auto collect = [&](std::uint64_t i) {
    Decoded& d = decoded[i % slots];
    workers.wait(i % slots);
    if (!d.ok) return false;
    events += d.trace.size();
    loaded.push_back(std::move(d.trace));
    return true;
  };
  for (std::uint64_t i = 0; i < threads; ++i) {
    if (i >= slots && !collect(i - slots)) return false;
    Decoded& d = decoded[i % slots];
    if (wire::read_frame_unchecked(in, &d.frame, &d.crc) !=
            wire::FrameError::kOk ||
        d.frame.type != wire::FrameType::kThreadTrace) {
      return false;
    }
    d.index = i;
    workers.post(i % slots);
  }
  for (std::uint64_t i = threads - std::min<std::uint64_t>(threads, slots);
       i < threads; ++i) {
    if (!collect(i)) return false;
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
