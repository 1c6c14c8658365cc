// Trace codec microbench: the layers save_traces and load_traces spend
// their time in. Every phase is timed in the thread's CPU time and keeps the
// best of 3 passes.
//
// Phase crc — wire::crc32 over MB MiB of pseudo-random bytes (default 64)
//   against SeedCrc32, a copy of the byte-at-a-time table loop the codec
//   used before slicing-by-16. The two must agree; crc_speedup is floored
//   by check_bench.py.
// Phases save and load, on two inputs:
//   random — 8 threads x 1M synthetic events at random 8-byte-aligned
//     addresses in a 256 MiB range, so an address delta takes 4 or 5
//     varint bytes: the encoding's hard case;
//   kmeans — the kmeans kernel's capture (8 threads, scale 1, seed 1), a
//     real access stream.
//   save_traces writes into a streambuf that drops what it is given, so the
//   figure is the codec's own cost, not a caller's buffer growing;
//   load_traces reads the saved bytes from an istringstream, and the loaded
//   traces must equal the saved ones. Both report events/s, since MB/s of
//   encoded bytes does not compare across encodings, and the encoded
//   bytes_per_event. trace_compression is 16 / kmeans bytes_per_event (the
//   16-byte event records read 1.0); check_bench.py floors it.
//
// Usage: microbench_trace [MB] [--json FILE]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "trace/trace_io.hpp"
#include "trace/wire_format.hpp"

namespace {

/// The byte-at-a-time table loop wire::crc32 replaced, kept as the
/// reference crc_speedup is measured against.
class SeedCrc32 {
 public:
  SeedCrc32() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table_[i] = c;
    }
  }

  std::uint32_t operator()(const void* data, std::size_t size) const {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
      c = table_[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xffffffffu;
  }

 private:
  std::array<std::uint32_t, 256> table_{};
};

/// Accepts and drops every byte written to it.
class DiscardBuf : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
};

/// Best CPU time of 3 runs of `fn`.
template <typename Fn>
double best_of_3(Fn&& fn) {
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const double start = pred::bench::thread_cpu_seconds();
    fn();
    const double s = pred::bench::thread_cpu_seconds() - start;
    if (pass == 0 || s < best) best = s;
  }
  return best;
}

std::vector<pred::ThreadTrace> synthetic_traces(std::size_t threads,
                                                std::size_t events) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::vector<pred::ThreadTrace> traces(threads);
  for (pred::ThreadTrace& trace : traces) {
    trace.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      trace.push_back({0x7f0000000000ull + ((x >> 20) & 0xffffff8ull),
                       static_cast<std::uint32_t>(x >> 58),
                       (x >> 40) & 1 ? pred::AccessType::kWrite
                                     : pred::AccessType::kRead,
                       static_cast<std::uint8_t>(1u << ((x >> 50) & 3))});
    }
  }
  return traces;
}

/// Save and load rates of one input, and its encoded size.
struct CodecFigures {
  double events = 0;
  double save_events_per_s = 0;
  double load_events_per_s = 0;
  double bytes_per_event = 0;
};

/// Times save_traces and load_traces on `traces`. False when a save fails
/// or a load does not return the saved traces.
bool measure_codec(const std::vector<pred::ThreadTrace>& traces,
                   CodecFigures* out) {
  DiscardBuf discard;
  std::ostream sink(&discard);
  bool ok = true;
  const double save_s =
      best_of_3([&] { ok = pred::save_traces(sink, traces) && ok; });
  std::ostringstream encoded;
  if (!ok || !pred::save_traces(encoded, traces)) return false;
  const auto bytes = static_cast<double>(encoded.tellp());
  std::istringstream in(std::move(encoded).str());
  std::vector<pred::ThreadTrace> loaded;
  const double load_s = best_of_3([&] {
    in.clear();
    in.seekg(0);
    ok = pred::load_traces(in, &loaded) && ok;
  });
  const auto same = [](const pred::TraceEvent& a, const pred::TraceEvent& b) {
    return a.addr == b.addr && a.think_cycles == b.think_cycles &&
           a.type == b.type && a.size == b.size;
  };
  ok = ok && loaded.size() == traces.size();
  for (std::size_t t = 0; ok && t < traces.size(); ++t) {
    ok = std::equal(traces[t].begin(), traces[t].end(), loaded[t].begin(),
                    loaded[t].end(), same);
  }
  out->events = static_cast<double>(pred::total_events(traces));
  out->save_events_per_s = out->events / save_s;
  out->load_events_per_s = out->events / load_s;
  out->bytes_per_event = bytes / out->events;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t mb = 64;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      const long v = std::atol(argv[i]);
      if (v <= 0) {
        std::fprintf(stderr, "usage: %s [MB > 0] [--json FILE]\n", argv[0]);
        return 1;
      }
      mb = static_cast<std::size_t>(v);
    }
  }

  // Phase crc.
  std::vector<unsigned char> buf(mb << 20);
  std::uint32_t x = 1;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 24);
  }
  const SeedCrc32 seed_crc32;
  std::uint32_t crc = 0, seed_crc = 0;
  const double crc_s =
      best_of_3([&] { crc = pred::wire::crc32(buf.data(), buf.size()); });
  const double seed_s =
      best_of_3([&] { seed_crc = seed_crc32(buf.data(), buf.size()); });
  if (crc != seed_crc) {
    std::fprintf(stderr, "crc32 0x%08x disagrees with the seed's 0x%08x\n",
                 crc, seed_crc);
    return 1;
  }
  const double crc_mb = static_cast<double>(buf.size()) / 1e6;
  buf = {};
  const double crc_mbps = crc_mb / crc_s;
  const double seed_mbps = crc_mb / seed_s;
  const double speedup = seed_s / crc_s;
  std::printf("crc    %4zu MiB: crc32 %8.0f MB/s, seed %6.0f MB/s (%.2fx)\n",
              mb, crc_mbps, seed_mbps, speedup);
  pred::bench::JsonWriter json;
  json.add("crc_mb_per_s", crc_mbps);
  json.add("seed_crc_mb_per_s", seed_mbps);
  json.add("crc_speedup", speedup);

  // Phases save and load, on each input.
  std::vector<std::pair<std::string, std::vector<pred::ThreadTrace>>> inputs;
  inputs.emplace_back("random", synthetic_traces(8, 1 << 20));
  pred::Session session(pred::bench::session_options());
  inputs.emplace_back("kmeans",
                      pred::wl::find_workload("kmeans")->capture(
                          session, pred::bench::default_params()));
  double kmeans_bytes_per_event = 0;
  for (const auto& [name, traces] : inputs) {
    CodecFigures f;
    if (!measure_codec(traces, &f)) {
      std::fprintf(stderr, "%s: save_traces failed, or load_traces did not "
                   "return the saved traces\n", name.c_str());
      return 1;
    }
    std::printf("%-6s %5.2fM events: save %6.1fM events/s, load %6.1fM "
                "events/s, %.2f B/event\n",
                name.c_str(), f.events / 1e6, f.save_events_per_s / 1e6,
                f.load_events_per_s / 1e6, f.bytes_per_event);
    json.add(name + "_save_events_per_s", f.save_events_per_s);
    json.add(name + "_load_events_per_s", f.load_events_per_s);
    json.add(name + "_bytes_per_event", f.bytes_per_event);
    if (name == "kmeans") kmeans_bytes_per_event = f.bytes_per_event;
  }
  const double compression = 16.0 / kmeans_bytes_per_event;
  std::printf("trace_compression %.2fx (16-byte records / kmeans)\n",
              compression);
  json.add("trace_compression", compression);

  if (!json_path.empty() && !json.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
