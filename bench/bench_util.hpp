// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "report_io/json_writer.hpp"
#include "sim/cache_sim.hpp"
#include "workloads/workload.hpp"

namespace pred::bench {

/// Flat JSON object writer for the CI bench-smoke artifacts
/// (BENCH_*.json): string keys mapping to numbers, emitted in insertion
/// order. A thin adapter over the report_io pred::JsonWriter, so escaping
/// and serialization live in exactly one (tested) place.
class JsonWriter {
 public:
  void add(std::string key, double value) {
    entries_.emplace_back(std::move(key), value);
  }
  bool write_file(const std::string& path) const {
    pred::JsonWriter w;
    w.begin_object();
    for (const auto& [key, value] : entries_) w.field(key, value);
    w.end_object();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

inline SessionOptions session_options() {
  SessionOptions o;
  o.heap_size = 64 * 1024 * 1024;
  return o;
}

inline wl::Params default_params() {
  wl::Params p;
  p.threads = 8;
  p.scale = 1;
  return p;
}

/// Modeled parallel runtime of one workload configuration: event-driven
/// execution of the captured traces on the 8-core cache simulator (threads
/// advance by their access costs plus annotated compute).
inline double modeled_seconds(const wl::Workload& w, const wl::Params& p) {
  Session scratch(session_options());
  const auto traces = w.capture(scratch, p);
  CacheSim sim;
  return simulate_concurrent(sim, traces).seconds();
}

/// Percent improvement of `fixed` over `buggy` runtimes:
/// (t_buggy - t_fixed) / t_fixed * 100, the paper's Table 1 convention
/// (so a 12x speedup prints as ~1100%).
inline double improvement_pct(double buggy_seconds, double fixed_seconds) {
  if (fixed_seconds <= 0) return 0.0;
  return (buggy_seconds - fixed_seconds) / fixed_seconds * 100.0;
}

/// The calling thread's CPU time. A loop timed in it does not count the
/// time the host spent descheduling the thread for other work.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// This process's resident set size in bytes (/proc/self/statm), or 0
/// where /proc is unavailable.
inline std::size_t resident_bytes() {
  unsigned long pages = 0;
  unsigned long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%lu %lu", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// The median of `v` (the mean of the middle two for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline void print_rule(char c = '-', int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace pred::bench
