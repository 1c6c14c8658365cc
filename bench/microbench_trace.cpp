// Trace codec microbench: the layers save_traces and load_traces spend
// their time in. Every phase keeps the best of 3 passes.
//
// Phase crc — wire::crc32 over MB MiB of pseudo-random bytes (default 64)
//   against SeedCrc32, a copy of the byte-at-a-time table loop the codec
//   used before slicing-by-16, in the thread's CPU time. The two must
//   agree; crc_speedup is floored by check_bench.py.
// Phases save and load, on two inputs:
//   random — 8 threads x 1M synthetic events at random 8-byte-aligned
//     addresses in a 256 MiB range, so an address delta takes 4 or 5
//     varint bytes: the encoding's hard case;
//   kmeans — the kmeans kernel's capture (8 threads, scale 1, seed 1), a
//     real access stream.
//   save_traces writes into a streambuf that drops what it is given, so the
//   figure is the codec's own cost, not a caller's buffer growing;
//   load_traces reads the saved bytes from an istringstream, and the loaded
//   traces must equal the saved ones. The codec encodes and decodes thread
//   frames on one slot per CPU of the caller's affinity mask, so both are
//   timed in wall time, once on every CPU the bench may use and once with
//   the bench pinned to one of them (one slot, no worker thread). Both
//   report events/s, since MB/s of encoded bytes does not compare across
//   encodings, and the encoded bytes_per_event. trace_compression is 16 /
//   kmeans bytes_per_event (the 16-byte event records read 1.0);
//   save_parallel_speedup and load_parallel_speedup are kmeans's events/s
//   on every CPU over those on one, and `cpus` is how many CPUs that is.
//   check_bench.py floors trace_compression, and save_parallel_speedup when
//   `cpus` is at least 2.
//
// Usage: microbench_trace [MB] [--json FILE]
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
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

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best time of 3 runs of `fn`, read from `clock` (seconds).
template <typename Fn>
double best_of_3(double (*clock)(), Fn&& fn) {
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const double start = clock();
    fn();
    const double s = clock() - start;
    if (pass == 0 || s < best) best = s;
  }
  return best;
}

/// CPUs in the calling thread's affinity mask.
int affinity_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  return sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
}

/// Pins the calling thread to the first CPU of its affinity mask while it
/// lives, and restores the mask after.
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
  const double save_s = best_of_3(
      wall_seconds, [&] { ok = pred::save_traces(sink, traces) && ok; });
  std::ostringstream encoded;
  if (!ok || !pred::save_traces(encoded, traces)) return false;
  const auto bytes = static_cast<double>(encoded.tellp());
  std::istringstream in(std::move(encoded).str());
  std::vector<pred::ThreadTrace> loaded;
  const double load_s = best_of_3(wall_seconds, [&] {
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
  const double crc_s = best_of_3(pred::bench::thread_cpu_seconds, [&] {
    crc = pred::wire::crc32(buf.data(), buf.size());
  });
  const double seed_s = best_of_3(pred::bench::thread_cpu_seconds, [&] {
    seed_crc = seed_crc32(buf.data(), buf.size());
  });
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
  const int cpus = affinity_cpus();
  CodecFigures kmeans, kmeans_one;
  for (const auto& [name, traces] : inputs) {
    CodecFigures f, one;
    bool ok = measure_codec(traces, &f);
    {
      OneCpu pin;
      if (!pin.pinned()) {
        std::fprintf(stderr, "cannot pin the bench to one CPU\n");
        return 1;
      }
      ok = measure_codec(traces, &one) && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: save_traces failed, or load_traces did not "
                   "return the saved traces\n", name.c_str());
      return 1;
    }
    std::printf("%-6s %5.2fM events, %.2f B/event: save %6.1fM events/s "
                "(1 CPU %6.1fM), load %6.1fM events/s (1 CPU %6.1fM)\n",
                name.c_str(), f.events / 1e6, f.bytes_per_event,
                f.save_events_per_s / 1e6, one.save_events_per_s / 1e6,
                f.load_events_per_s / 1e6, one.load_events_per_s / 1e6);
    json.add(name + "_save_events_per_s", f.save_events_per_s);
    json.add(name + "_load_events_per_s", f.load_events_per_s);
    json.add(name + "_save_events_per_s_1cpu", one.save_events_per_s);
    json.add(name + "_load_events_per_s_1cpu", one.load_events_per_s);
    json.add(name + "_bytes_per_event", f.bytes_per_event);
    if (name == "kmeans") {
      kmeans = f;
      kmeans_one = one;
    }
  }
  const double compression = 16.0 / kmeans.bytes_per_event;
  const double save_speedup =
      kmeans.save_events_per_s / kmeans_one.save_events_per_s;
  const double load_speedup =
      kmeans.load_events_per_s / kmeans_one.load_events_per_s;
  std::printf("trace_compression %.2fx (16-byte records / kmeans)\n",
              compression);
  std::printf("kmeans on %d CPUs over 1: save %.2fx, load %.2fx\n", cpus,
              save_speedup, load_speedup);
  json.add("trace_compression", compression);
  json.add("cpus", cpus);
  json.add("save_parallel_speedup", save_speedup);
  json.add("load_parallel_speedup", load_speedup);

  if (!json_path.empty() && !json.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
