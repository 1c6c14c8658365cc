// Collector pipeline microbench: the three costs a fleet deployment pays.
//
// Phase A — codec: SnapshotCodec encode/decode of a realistic snapshot
//   (16 hot lines, 8 callsites), measured separately. This bounds
//   the per-publish cost a client adds to its monitor thread and the
//   per-frame cost the collector pays before merging.
//
// Phase B — ingest: pre-encoded frames from 32 simulated clients fed
//   through Collector::ingest_frame from 4 threads. Decoding runs outside
//   the collector's mutex, the join inside it.
//
// Phase C — rollup: folding a populated collector (64 clients) into the
//   fleet view, i.e. the cost of each periodic report in `serve`.
//
// Usage: microbench_collector [frames] [--json FILE]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "collect/collector.hpp"
#include "trace/snapshot_codec.hpp"

namespace {

constexpr std::uint32_t kIngestThreads = 4;
constexpr std::size_t kClients = 32;

// A snapshot shaped like a busy client's: full top-K, attributed lines,
// sites with labels.
pred::MonitorSnapshot make_snapshot(std::uint64_t client, std::uint64_t seq) {
  pred::MonitorSnapshot s;
  s.sequence = seq;
  s.events_seen = 100000 * seq;
  s.escalations = 12;
  s.invalidations = 9000 * seq;
  s.samples = 40000 * seq;
  s.predictions = 2;
  s.virtual_lines = 4;
  s.lines_tracked = 16;
  for (std::uint64_t i = 0; i < 16; ++i) {
    pred::MonitorSnapshot::LineEntry le;
    le.line_start = 0x4000000000ull + 64 * ((client * 7 + i) % 48);
    le.invalidations = 100 * seq + i;
    le.samples = 400 * seq + i;
    le.sample_writes = 300 * seq;
    le.escalated = i % 3 == 0;
    le.attributed = true;
    le.object_start = le.line_start & ~0xfffull;
    le.callsite = static_cast<pred::CallsiteId>(1 + i % 8);
    le.label = "bench.c:" + std::to_string(10 + i % 8);
    s.top_lines.push_back(le);
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    pred::MonitorSnapshot::CallsiteEntry ce;
    ce.callsite = static_cast<pred::CallsiteId>(1 + i);
    ce.label = "bench.c:" + std::to_string(10 + i);
    ce.invalidations = 200 * seq;
    ce.samples = 800 * seq;
    ce.lines = 2;
    s.callsites.push_back(ce);
  }
  return s;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct CodecRates {
  double encodes_per_sec = 0.0;
  double decodes_per_sec = 0.0;
  std::size_t frame_bytes = 0;
};

CodecRates bench_codec(std::uint64_t iters) {
  const pred::MonitorSnapshot snap = make_snapshot(1, 40);
  const pred::ClientId client{0x1234, 42};
  CodecRates r;

  std::string frame;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    frame = pred::SnapshotCodec::encode(snap, client);
  }
  r.encodes_per_sec = static_cast<double>(iters) / seconds_since(start);
  r.frame_bytes = frame.size();

  pred::wire::Frame parsed;
  std::size_t consumed = 0;
  if (pred::wire::parse_frame(frame, &parsed, &consumed) !=
      pred::wire::FrameError::kOk) {
    std::fprintf(stderr, "codec self-check failed\n");
    std::exit(1);
  }
  start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    pred::DecodedSnapshot decoded;
    if (!pred::SnapshotCodec::decode(parsed.payload, &decoded)) {
      std::fprintf(stderr, "decode self-check failed\n");
      std::exit(1);
    }
  }
  r.decodes_per_sec = static_cast<double>(iters) / seconds_since(start);
  return r;
}

// Frames/sec through ingest_frame, kIngestThreads feeders striding over one
// shared pre-encoded frame set.
double bench_ingest(std::uint64_t frames_total) {
  std::vector<std::string> frames;
  frames.reserve(1024);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::uint64_t seq = 1; seq <= 1024 / kClients; ++seq) {
      frames.push_back(pred::SnapshotCodec::encode(
          make_snapshot(c, seq), pred::ClientId{100 + c, 5000 + c}));
    }
  }

  pred::Collector collector;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = t; i < frames_total; i += kIngestThreads) {
        if (!collector.ingest_frame(frames[i % frames.size()])) {
          std::fprintf(stderr, "ingest rejected a valid frame\n");
          std::exit(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double elapsed = seconds_since(start);
  if (collector.stats().snapshots_ingested == 0) {
    std::fprintf(stderr, "ingest self-check failed\n");
    std::exit(1);
  }
  return static_cast<double>(collector.stats().snapshots_ingested) / elapsed;
}

double bench_rollup(std::uint64_t iters) {
  pred::Collector collector;
  for (std::size_t c = 0; c < 64; ++c) {
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      collector.ingest(100 + c, 5000 + c, make_snapshot(c, seq));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const pred::FleetRollup r = collector.rollup();
    if (r.clients != 64) {
      std::fprintf(stderr, "rollup self-check failed\n");
      std::exit(1);
    }
  }
  return static_cast<double>(iters) / seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t frames = 200'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      frames = std::strtoull(argv[i], nullptr, 10);
      if (frames == 0) {
        std::fprintf(stderr, "usage: %s [frames > 0] [--json FILE]\n",
                     argv[0]);
        return 1;
      }
    }
  }

  std::printf("collector pipeline: %zu clients, %u ingest threads, %" PRIu64
              " frames\n\n",
              kClients, kIngestThreads, frames);

  const CodecRates codec = bench_codec(frames / 4);
  std::printf("phase A: snapshot codec (%zu-byte frame)\n", codec.frame_bytes);
  std::printf("  %-28s %15.0f snapshots/sec\n", "encode", codec.encodes_per_sec);
  std::printf("  %-28s %15.0f snapshots/sec\n", "decode", codec.decodes_per_sec);

  const double ingest = bench_ingest(frames);
  std::printf("\nphase B: concurrent ingest\n");
  std::printf("  %-28s %15.0f frames/sec\n", "ingest_frame()", ingest);

  const double rollups = bench_rollup(frames / 100);
  std::printf("\nphase C: fleet rollup (64 clients)\n");
  std::printf("  %-28s %15.0f rollups/sec\n", "rollup()", rollups);

  if (!json_path.empty()) {
    pred::bench::JsonWriter json;
    json.add("frame_bytes", static_cast<double>(codec.frame_bytes));
    json.add("encode_per_sec", codec.encodes_per_sec);
    json.add("decode_per_sec", codec.decodes_per_sec);
    json.add("ingest_fps", ingest);
    json.add("rollup_per_sec", rollups);
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "json: %s\n", json_path.c_str());
  }
  return 0;
}
