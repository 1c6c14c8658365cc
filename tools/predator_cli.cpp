// predator-cli: command-line driver for the PREDATOR library.
//
// The default run replays a registered workload under the detector and
// prints its report (text or JSON, optionally with fix prescriptions, a
// NUMA topology verdict or a before/after diff), and can act as a CI gate.
// The other commands: `monitor` (live run with rolling snapshots), `serve`
// and `fleet` (fleet collector, src/collect/), `repair` (the closed
// detect -> plan -> apply -> verify loop, src/repair/) and `analyze`
// (static analysis of a textual IR module).
//
// Each command is a row of kCommands and each flag a row of kFlags that
// names the commands it applies to. The shared parser (common/flags.hpp)
// rejects a flag given to any other command, and `predator-cli --help` /
// `predator-cli COMMAND --help` print the same tables. Worked examples are
// in docs/usage.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "advice/fix_advisor.hpp"
#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "common/flags.hpp"
#include "common/format.hpp"
#include "instrument/analyze_tool.hpp"
#include "repair/plan_codec.hpp"
#include "repair/planner.hpp"
#include "repair/targets.hpp"
#include "repair/verifier.hpp"
#include "report_io/json_writer.hpp"
#include "report_io/report_diff.hpp"
#include "report_io/report_json.hpp"
#include "report_io/snapshot_json.hpp"
#include "sim/numa_cache_sim.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

using namespace pred;

namespace {

using Args = std::vector<std::string>;

// One scope bit per command that parses kFlags.
enum : unsigned {
  kRun = 1u << 0,  // the default run
  kMonitor = 1u << 1,
  kServe = 1u << 2,
  kFleet = 1u << 3,
  kRepair = 1u << 4,
};
// The commands that run a workload in a Session configured by the flags.
constexpr unsigned kSessions = kRun | kMonitor | kFleet;

struct CliOptions {
  std::string workload;  ///< --workload, or the NAME / TARGET operand
  std::string save_trace;
  std::string plan_file;  ///< repair plan applied to this run's allocator
  wl::Params params;
  SessionOptions session;
  bool list = false;
  bool json = false;
  bool advise_fixes = false;
  bool fail_on_findings = false;
  bool diff_fix = false;
  std::size_t replay_quantum = 1;
  /// monitor: snapshot print period (0: 200 ms); serve: rolling rollup
  /// period (0: off).
  std::uint64_t interval_ms = 0;
  std::uint64_t monitor_repeat = 1;  ///< monitor runs / fleet snapshots
  // Fleet aggregation (serve / --emit-to / fleet).
  std::string emit_to;  ///< unix socket of a `serve` collector
  std::string socket_path;
  std::uint64_t serve_expect = 0;  ///< exit after N goodbyes (0: until killed)
  std::size_t top_k = 16;
  std::uint64_t fleet_clients = 4;
  // `repair` state.
  bool repair_static = false;  ///< compile the plan statically (no profiling)
  std::string plan_out;   ///< repair: persist the compiled plan frame file
  std::string emit_plan;  ///< serve: persist the merged fleet plan at exit
  // --topology: also replay the captured trace through the two-level NUMA
  // simulator and report hot lines with remote/local cost attribution.
  bool topology_set = false;
  NumaConfig topology;
};

/// A decimal number with nothing after it.
bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

const Flag<CliOptions> kFlags[] = {
    // Workload selection.
    {"--list", nullptr, kRun, "list the available workloads and exit",
     [](CliOptions& o, const char*) { o.list = true; return true; }},
    {"--workload", "NAME", kRun, "workload to run (see --list)",
     [](CliOptions& o, const char* s) { o.workload = s; return true; }},
    {"--threads", "N", kSessions | kRepair, "logical threads, 1-64 (default 8)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.params.threads, 1, 64);
     }},
    {"--scale", "N", kSessions | kRepair, "work multiplier (default 1)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.params.scale, 1);
     }},
    {"--offset", "BYTES", kSessions,
     "placement offset for offset-sensitive kernels, 0-127",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.params.offset, 0, 127);
     }},
    {"--fix", "MASK", kSessions, "bitmask of sites to fix (site i -> bit i)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.params.fix_mask, 0, UINT32_MAX);
     }},
    // Detector configuration.
    {"--no-prediction", nullptr, kSessions,
     "run as PREDATOR-NP (observed sharing only)",
     [](CliOptions& o, const char*) {
       o.session.runtime.prediction_enabled = false;
       return true;
     }},
    {"--sampling", "RATE", kSessions, "sampling rate in (0,1] (default 0.01)",
     [](CliOptions& o, const char* s) {
       double rate = 0.0;
       if (!parse_double(s, &rate) || rate <= 0.0 || rate > 1.0) return false;
       o.session.runtime.set_sampling_rate(rate);
       return true;
     }},
    {"--tracking-threshold", "N", kSessions,
     "writes before a line is tracked (default 100)",
     [](CliOptions& o, const char* s) {
       RuntimeConfig& rt = o.session.runtime;
       if (!parse_uint(s, &rt.tracking_threshold, 1)) return false;
       rt.prediction_threshold =
           std::max(rt.prediction_threshold, rt.tracking_threshold);
       return true;
     }},
    {"--report-threshold", "N", kSessions,
     "invalidations before a line is reported (default 100)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.session.runtime.report_invalidation_threshold);
     }},
    {"--quantum", "N", kRun | kFleet | kRepair,
     "replay interleaving quantum (default 1)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.replay_quantum, 1);
     }},
    // Topology simulation.
    {"--topology", "SxC", kRun,
     "also replay the trace through the NUMA simulator with S sockets x C "
     "cores per socket (e.g. 2x4) and print hot lines with remote-traffic "
     "attribution",
     [](CliOptions& o, const char* s) {
       unsigned sockets = 0, cores = 0;
       if (std::sscanf(s, "%ux%u", &sockets, &cores) != 2 || sockets < 1 ||
           sockets > 16 || cores < 1 ||
           std::uint64_t{sockets} * cores > NumaCacheSim::kMaxCores) {
         return false;
       }
       o.topology_set = true;
       o.topology.sockets = sockets;
       o.topology.cores_per_socket = cores;
       return true;
     }},
    {"--remote-factor", "F", kRun,
     "cross-socket latency multiplier, >= 1 (default 3)",
     [](CliOptions& o, const char* s) {
       double f = 0.0;
       if (!parse_double(s, &f) || f < 1.0) return false;
       o.topology.remote_factor = f;
       return true;
     }},
    {"--placement", "MODE", kRun,
     "core numbering: compact (default) | scatter (neighbour threads on "
     "alternating sockets)",
     [](CliOptions& o, const char* s) {
       if (std::strcmp(s, "compact") == 0) {
         o.topology.placement = NumaPlacement::kCompact;
       } else if (std::strcmp(s, "scatter") == 0) {
         o.topology.placement = NumaPlacement::kScatter;
       } else {
         return false;
       }
       return true;
     }},
    {"--llc-line", "N", kRun,
     "per-socket LLC line size, a multiple of 64 (default 64; larger models "
     "a coarser directory grain)",
     [](CliOptions& o, const char* s) {
       std::size_t v = 0;
       if (!parse_uint(s, &v, 64) || v % 64 != 0) return false;
       o.topology.llc_line_size = v;
       return true;
     }},
    // Output.
    {"--json", nullptr, kRun | kServe | kFleet | kRepair, "print JSON",
     [](CliOptions& o, const char*) { o.json = true; return true; }},
    {"--advise", nullptr, kRun, "append fix-advisor prescriptions",
     [](CliOptions& o, const char*) { o.advise_fixes = true; return true; }},
    {"--save-trace", "FILE", kRun, "also save the captured trace",
     [](CliOptions& o, const char* s) { o.save_trace = s; return true; }},
    {"--plan", "FILE", kRun,
     "install a saved repair plan (from repair --plan-out or serve "
     "--emit-plan) before the workload allocates",
     [](CliOptions& o, const char* s) { o.plan_file = s; return true; }},
    {"--fail-on-findings", nullptr, kRun | kMonitor,
     "exit 2 when false sharing is reported",
     [](CliOptions& o, const char*) {
       o.fail_on_findings = true;
       return true;
     }},
    {"--diff-fix", nullptr, kRun,
     "also run the fixed variant and print the before/after report diff",
     [](CliOptions& o, const char*) { o.diff_fix = true; return true; }},
    // Live monitoring and fleet aggregation.
    {"--interval-ms", "N", kMonitor | kServe,
     "monitor: snapshot print period (default 200); serve: also print a "
     "rollup after N quiet ms",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.interval_ms, 1, INT32_MAX);
     }},
    {"--repeat", "N", kMonitor | kFleet,
     "monitor: run the workload N times; fleet: snapshots per client "
     "(default 1)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.monitor_repeat, 1);
     }},
    {"--emit-to", "PATH", kRun | kMonitor,
     "stream this run's snapshots to a `serve` collector",
     [](CliOptions& o, const char* s) { o.emit_to = s; return true; }},
    {"--socket", "PATH", kServe, "unix socket to listen on (required)",
     [](CliOptions& o, const char* s) { o.socket_path = s; return true; }},
    {"--expect", "N", kServe,
     "exit once N clients said goodbye (default: run until killed)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.serve_expect);
     }},
    {"--top-k", "N", kServe | kFleet,
     "hot lines kept in the rollup (default 16)",
     [](CliOptions& o, const char* s) { return parse_uint(s, &o.top_k, 1); }},
    {"--clients", "N", kFleet, "client processes to fork, 1-256 (default 4)",
     [](CliOptions& o, const char* s) {
       return parse_uint(s, &o.fleet_clients, 1, 256);
     }},
    {"--emit-plan", "FILE", kServe,
     "persist the merged fleet repair plan as a frame file at exit",
     [](CliOptions& o, const char* s) { o.emit_plan = s; return true; }},
    // Repair.
    {"--plan-out", "FILE", kRepair, "persist the compiled plan as a frame file",
     [](CliOptions& o, const char* s) { o.plan_out = s; return true; }},
    {"--static", nullptr, kRepair,
     "compile the plan from the static predictor; the runs that follow "
     "only measure the drop",
     [](CliOptions& o, const char*) { o.repair_static = true; return true; }},
};

// Reports a command-line mistake for command `name` ("" for the default
// run); returns the exit code for it.
int usage_error(const char* name, const std::string& what) {
  const std::string cmd = *name != '\0' ? std::string(" ") + name : "";
  std::fprintf(stderr, "predator-cli%s: %s\nsee `predator-cli%s --help`\n",
               cmd.c_str(), what.c_str(), cmd.c_str());
  return 1;
}

// The workload `opt` names for command `name`; null, with a diagnostic,
// when it names none or an unknown one.
const wl::Workload* named_workload(const CliOptions& opt, const char* name) {
  if (opt.workload.empty()) {
    usage_error(name, *name != '\0' ? "missing workload NAME"
                                    : "missing --workload NAME");
    return nullptr;
  }
  const wl::Workload* w = wl::find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                 opt.workload.c_str());
  }
  return w;
}

// --topology: replay the same captured traces through the two-level NUMA
// simulator plus a 1-socket baseline with identical core count and costs,
// then print the big-machine verdict — remote/local cycle ratio, the
// interconnect traffic breakdown, and the hottest lines attributed back to
// their allocation sites. With `json_out` set, the verdict is serialized as
// one JSON object (the value of the report document's "topology" key — the
// whole --json output must stay a single parseable document) instead of
// printed.
void run_topology_sim(const CliOptions& opt, Session& session,
                      const std::vector<ThreadTrace>& traces,
                      std::string* json_out) {
  const NumaConfig& cfg = opt.topology;
  NumaConfig base = cfg;
  base.sockets = 1;
  base.cores_per_socket = cfg.total_cores();
  base.llc_line_size = cfg.line_size;
  NumaCacheSim local(base);
  NumaCacheSim numa(cfg);
  simulate_interleaved(local, traces, opt.replay_quantum);
  simulate_interleaved(numa, traces, opt.replay_quantum);
  const NumaStats& s = numa.stats();
  const double ratio =
      local.max_core_cycles() == 0
          ? 1.0
          : static_cast<double>(numa.max_core_cycles()) /
                static_cast<double>(local.max_core_cycles());

  auto site_of = [&](Address a) -> std::string {
    const auto obj = session.runtime().objects().find(a);
    if (!obj) return "?";
    if (obj->is_global && !obj->name.empty()) return obj->name;
    if (obj->callsite != kNoCallsite) {
      const auto& frames =
          session.runtime().callsites().get(obj->callsite).frames;
      if (!frames.empty()) return frames.back();
    }
    return "?";
  };
  const auto hot = numa.hottest_lines(8);
  const char* placement =
      cfg.placement == NumaPlacement::kScatter ? "scatter" : "compact";

  if (json_out != nullptr) {
    JsonWriter w;
    w.begin_object();
    w.field("sockets", static_cast<std::uint64_t>(cfg.sockets));
    w.field("cores_per_socket",
            static_cast<std::uint64_t>(cfg.cores_per_socket));
    w.field("placement", placement);
    w.field("remote_factor", cfg.remote_factor);
    w.field("llc_line_size", static_cast<std::uint64_t>(cfg.llc_line_size));
    w.field("max_core_cycles", numa.max_core_cycles());
    w.field("local_max_core_cycles", local.max_core_cycles());
    w.field("remote_ratio", ratio);
    w.field("remote_coherence_misses", s.remote_coherence_misses);
    w.field("remote_invalidations", s.remote_invalidations_sent);
    w.field("directory_transitions", s.directory_transitions);
    w.field("llc_sibling_invalidations", s.llc_sibling_invalidations);
    w.key("hot_lines").begin_array();
    for (const auto& h : hot) {
      w.begin_object();
      w.field("addr", static_cast<std::uint64_t>(h.line_start));
      w.field("invalidations", h.invalidations);
      w.field("remote_invalidations", h.remote_invalidations);
      w.field("site", site_of(h.line_start));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    *json_out = w.str();
    return;
  }

  std::printf("\n=== topology %ux%u (%s, remote x%.1f, llc %zuB) ===\n",
              cfg.sockets, cfg.cores_per_socket, placement, cfg.remote_factor,
              cfg.llc_line_size);
  std::printf("modeled cycles: %llu (1-socket baseline %llu, "
              "remote/local ratio %.2fx)\n",
              static_cast<unsigned long long>(numa.max_core_cycles()),
              static_cast<unsigned long long>(local.max_core_cycles()), ratio);
  std::printf("remote traffic: coherence %llu, shared fetches %llu, "
              "cold %llu, invalidations %llu\n",
              static_cast<unsigned long long>(s.remote_coherence_misses),
              static_cast<unsigned long long>(s.remote_shared_fetches),
              static_cast<unsigned long long>(s.remote_cold_misses),
              static_cast<unsigned long long>(s.remote_invalidations_sent));
  std::printf("directory: transitions %llu, socket invalidations %llu, "
              "llc sibling kills %llu\n",
              static_cast<unsigned long long>(s.directory_transitions),
              static_cast<unsigned long long>(s.directory_invalidations),
              static_cast<unsigned long long>(s.llc_sibling_invalidations));
  if (!hot.empty()) {
    std::printf("hot lines (top %zu):\n", hot.size());
    for (const auto& h : hot) {
      std::printf("  0x%llx inv=%llu remote=%llu  %s\n",
                  static_cast<unsigned long long>(h.line_start),
                  static_cast<unsigned long long>(h.invalidations),
                  static_cast<unsigned long long>(h.remote_invalidations),
                  site_of(h.line_start).c_str());
    }
  }
}

int list_workloads() {
  std::printf("%-20s %-8s %s\n", "name", "suite", "known sites");
  for (const auto& w : wl::all_workloads()) {
    std::string sites;
    for (const auto& s : w->traits().sites) {
      if (!sites.empty()) sites += ", ";
      sites += s.where;
      if (s.needs_prediction) sites += " [latent]";
    }
    std::printf("%-20s %-8s %s\n", w->traits().name.c_str(),
                w->traits().suite.c_str(),
                sites.empty() ? "(clean)" : sites.c_str());
  }
  return 0;
}

// Connects to a `serve` collector and sends the hello bracket. Null (with
// a diagnostic) when the endpoint is unreachable.
std::unique_ptr<FdSink> open_emit_sink(const std::string& path,
                                       Session& session) {
  const int fd = connect_unix(path);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to collector at %s\n", path.c_str());
    return nullptr;
  }
  auto sink = std::make_unique<FdSink>(fd);
  if (!sink->send(session.hello_frame())) {
    std::fprintf(stderr, "collector at %s hung up\n", path.c_str());
    return nullptr;
  }
  return sink;
}

// `monitor` subcommand: run the workload live (real threads), print a
// rolling monitor snapshot every interval, then the final report.
// Demonstrates that snapshots are served while mutators run — the printing
// happens from the main thread with no pauses. With --emit-to, every
// printed snapshot is also published to the collector.
int run_monitor(const CliOptions& opt) {
  const wl::Workload* w = named_workload(opt, "monitor");
  if (w == nullptr) return 1;
  Session session(opt.session);

  std::unique_ptr<FdSink> emit;
  if (!opt.emit_to.empty()) {
    emit = open_emit_sink(opt.emit_to, session);
    if (!emit) return 1;
  }

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (std::uint64_t r = 0; r < opt.monitor_repeat; ++r) {
      w->run_live(session, opt.params);
    }
    done.store(true, std::memory_order_release);
  });

  const auto interval =
      std::chrono::milliseconds(opt.interval_ms != 0 ? opt.interval_ms : 200);
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    std::printf("%s\n", session.monitor().snapshot_text().c_str());
    std::fflush(stdout);
    if (emit) emit->send(session.publish());
  }
  worker.join();

  if (emit) {
    emit->send(session.publish());
    emit->send(session.goodbye_frame());
  }

  std::printf("=== final snapshot ===\n%s\n",
              session.monitor().snapshot_text().c_str());
  std::printf("=== final report ===\n%s",
              format_report(session.report(),
                            session.runtime().callsites()).c_str());
  if (opt.fail_on_findings &&
      wl::false_sharing_findings(session.report()) > 0) {
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fleet aggregation: serve / fleet
// ---------------------------------------------------------------------------

// One transport connection into the collector: the fd plus the incremental
// parser reassembling frames across read() boundaries.
struct ClientConn {
  int fd = -1;
  FrameStreamParser parser;
  bool open = true;
};

// One POLLIN's worth of bytes: read once, feed the parser, ingest every
// complete frame. EOF or a poisoned stream closes the connection.
void drain_conn(Collector& collector, ClientConn& conn) {
  char buf[4096];
  ssize_t n;
  do {
    n = ::read(conn.fd, buf, sizeof buf);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    conn.open = false;
    ::close(conn.fd);
    return;
  }
  conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  wire::Frame frame;
  while (conn.parser.next(&frame)) collector.ingest_frame(frame);
  if (conn.parser.poisoned()) {
    std::fprintf(stderr, "dropping client: corrupt frame stream\n");
    conn.open = false;
    ::close(conn.fd);
  }
}

void print_rollup(const Collector& collector, bool json) {
  if (json) {
    const repair::RepairPlan plan = collector.merged_plan();
    std::printf("%s\n",
                rollup_json(collector.rollup(),
                            plan.empty() ? nullptr : &plan)
                    .c_str());
  } else {
    std::printf("%s", collector.rollup_text().c_str());
  }
  std::fflush(stdout);
}

// The collector loop `serve` and `fleet` share: ingests every readable
// connection, accepts new ones on `listen_fd` (-1: none), and prints a
// rollup after every `opt.interval_ms` without traffic (0: never). Returns
// once no connection is open and none is due: `fleet` has no listener, so
// that is when every client hung up; `serve` waits for --expect goodbyes
// (none given: it runs until killed).
void collect(Collector& collector, int listen_fd, std::vector<ClientConn> conns,
             const CliOptions& opt) {
  for (;;) {
    if (conns.empty() &&
        (listen_fd < 0 || (opt.serve_expect != 0 &&
                           collector.stats().goodbyes >= opt.serve_expect))) {
      return;
    }
    std::vector<pollfd> pfds;
    for (const ClientConn& c : conns) pfds.push_back({c.fd, POLLIN, 0});
    if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
    const int timeout = opt.interval_ms != 0 ? static_cast<int>(opt.interval_ms)
                                             : -1;
    const int ready = ::poll(pfds.data(), pfds.size(), timeout);
    if (ready < 0 && errno != EINTR) return;
    if (ready == 0) print_rollup(collector, opt.json);
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain_conn(collector, conns[i]);
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const ClientConn& c) { return !c.open; }),
                conns.end());
    if (listen_fd >= 0 && (pfds.back().revents & POLLIN) != 0) {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd >= 0) {
        ClientConn conn;
        conn.fd = cfd;
        conns.push_back(std::move(conn));
      }
    }
  }
}

// `serve` subcommand: collector daemon on a unix socket. With --expect N
// it exits once N clients said goodbye and every connection drained;
// otherwise it runs until killed.
int run_serve(const CliOptions& opt) {
  if (opt.socket_path.empty()) {
    return usage_error("serve", "missing --socket PATH");
  }
  const int lfd = listen_unix(opt.socket_path);
  if (lfd < 0) {
    std::fprintf(stderr, "cannot listen on %s\n", opt.socket_path.c_str());
    return 1;
  }
  Collector collector(opt.top_k);
  std::fprintf(stderr, "collector: listening on %s\n",
               opt.socket_path.c_str());
  collect(collector, lfd, {}, opt);
  ::close(lfd);
  ::unlink(opt.socket_path.c_str());

  const Collector::Stats st = collector.stats();
  std::fprintf(stderr,
               "collector: %llu frame(s) (%llu snapshot(s), %llu hello(s), "
               "%llu goodbye(s), %llu plan(s)), %llu rejected\n",
               static_cast<unsigned long long>(st.frames_ingested),
               static_cast<unsigned long long>(st.snapshots_ingested),
               static_cast<unsigned long long>(st.hellos),
               static_cast<unsigned long long>(st.goodbyes),
               static_cast<unsigned long long>(st.plans_ingested),
               static_cast<unsigned long long>(st.frames_rejected));
  if (!opt.emit_plan.empty()) {
    const repair::RepairPlan merged = collector.merged_plan();
    if (repair::save_plan_file(opt.emit_plan, merged)) {
      std::fprintf(stderr, "collector: merged plan (%zu entr%s) -> %s\n",
                   merged.entries.size(),
                   merged.entries.size() == 1 ? "y" : "ies",
                   opt.emit_plan.c_str());
    } else {
      std::fprintf(stderr, "collector: cannot write plan to %s\n",
                   opt.emit_plan.c_str());
      return 1;
    }
  }
  print_rollup(collector, opt.json);
  return 0;
}

// One forked fleet client: replay the workload deterministically,
// publishing a cumulative snapshot after every repeat, bracketed by
// hello/goodbye. Exits the process (never returns).
[[noreturn]] void run_fleet_client(const CliOptions& opt,
                                   const wl::Workload* w, int fd) {
  Session session(opt.session);
  FdSink sink(fd);
  bool ok = sink.send(session.hello_frame());
  for (std::uint64_t r = 0; r < opt.monitor_repeat && ok; ++r) {
    w->run_replay(session, opt.params, opt.replay_quantum);
    ok = sink.send(session.publish());
  }
  if (ok) ok = sink.send(session.goodbye_frame());
  std::_Exit(ok ? 0 : 1);
}

// `fleet` subcommand: the end-to-end demo. Forks --clients workload
// processes, each streaming snapshots over its own socketpair, drains them
// all into an in-process collector, and prints the fleet rollup. Children
// replay captured traces, so the demo is deterministic even on one core.
int run_fleet(const CliOptions& opt) {
  const wl::Workload* w = named_workload(opt, "fleet");
  if (w == nullptr) return 1;
  std::vector<ClientConn> conns;
  std::vector<pid_t> pids;

  for (std::uint64_t c = 0; c < opt.fleet_clients; ++c) {
    int fds[2];
    if (!make_socketpair(fds)) {
      std::fprintf(stderr, "socketpair failed for client %llu\n",
                   static_cast<unsigned long long>(c));
      return 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed for client %llu\n",
                   static_cast<unsigned long long>(c));
      return 1;
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (const ClientConn& prev : conns) ::close(prev.fd);
      run_fleet_client(opt, w, fds[1]);  // _Exits
    }
    ::close(fds[1]);
    ClientConn conn;
    conn.fd = fds[0];
    conns.push_back(std::move(conn));
    pids.push_back(pid);
  }

  // Drain every socketpair until all children closed their end.
  Collector collector(opt.top_k);
  collect(collector, -1, std::move(conns), opt);

  int failed = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed;
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d fleet client(s) failed\n", failed);
  }

  const Collector::Stats st = collector.stats();
  std::fprintf(stderr,
               "fleet: %llu client(s), %llu snapshot(s) ingested, "
               "%llu rejected\n",
               static_cast<unsigned long long>(opt.fleet_clients),
               static_cast<unsigned long long>(st.snapshots_ingested),
               static_cast<unsigned long long>(st.frames_rejected));
  print_rollup(collector, opt.json);
  return failed > 0 ? 1 : 0;
}

int list_repair_targets() {
  std::printf("%-16s %s\n", "target", "defect");
  for (const repair::RepairTarget* t : repair::all_repair_targets()) {
    std::printf("%-16s %s\n", std::string(t->name()).c_str(),
                std::string(t->description()).c_str());
  }
  return 0;
}

// `repair` subcommand: run the closed loop on a planted target and report
// the verdict. Exit 0 iff the repair is proven (drop >= threshold, no
// surviving finding on the planned sites, bit-identical checksum).
int run_repair(const CliOptions& opt) {
  if (opt.workload.empty()) return list_repair_targets();
  const repair::RepairTarget* target =
      repair::find_repair_target(opt.workload);
  if (target == nullptr) {
    std::fprintf(stderr, "unknown repair target '%s' (run `repair` with no "
                         "name to list them)\n",
                 opt.workload.c_str());
    return 1;
  }

  repair::VerifierOptions vopt;
  vopt.threads = opt.params.threads;
  vopt.scale = opt.params.scale;
  vopt.quantum = opt.replay_quantum;
  if (opt.repair_static) {
    repair::StaticModuleSpec probe;
    if (!target->static_spec(&probe, vopt.threads, vopt.scale)) {
      std::fprintf(stderr, "target '%s' has no static module spec; "
                           "--static needs an IR-describable target\n",
                   opt.workload.c_str());
      return 1;
    }
  }
  const repair::RepairOutcome outcome =
      opt.repair_static ? repair::run_static_repair_loop(*target, vopt)
                        : repair::run_repair_loop(*target, vopt);

  if (!opt.plan_out.empty()) {
    if (!repair::save_plan_file(opt.plan_out, outcome.plan)) {
      std::fprintf(stderr, "cannot write plan to %s\n", opt.plan_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "plan: %zu entr%s -> %s\n",
                 outcome.plan.entries.size(),
                 outcome.plan.entries.size() == 1 ? "y" : "ies",
                 opt.plan_out.c_str());
  }

  const bool proven = outcome.repaired(vopt.drop_threshold);
  if (opt.json) {
    JsonWriter w;
    w.begin_object();
    w.field("target", std::string(target->name()));
    w.field("static", opt.repair_static);
    w.field("repaired", proven);
    w.field("baseline_invalidations", outcome.baseline_invalidations);
    w.field("repaired_invalidations", outcome.repaired_invalidations);
    w.field("drop_pct", outcome.drop_pct());
    w.field("drop_threshold", vopt.drop_threshold);
    w.field("surviving_site_findings",
            static_cast<std::uint64_t>(outcome.repaired_site_findings));
    w.field("baseline_checksum", outcome.baseline_checksum);
    w.field("repaired_checksum", outcome.repaired_checksum);
    w.field("checksums_match", outcome.checksums_match());
    w.field("detect_ms", outcome.detect_ms);
    w.field("plan_ms", outcome.plan_ms);
    w.field("apply_ms", outcome.apply_ms);
    w.field("verify_ms", outcome.verify_ms);
    w.key("repair_plan").begin_object();
    write_plan_fields(w, outcome.plan);
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s\n%s", repair::format_plan(outcome.plan).c_str(),
                repair::format_outcome(outcome, vopt.drop_threshold).c_str());
  }
  return proven ? 0 : 2;
}

// The default run: capture the workload's trace, replay it into the
// detector, print the report.
int run_default(const CliOptions& opt) {
  if (opt.list) return list_workloads();
  const wl::Workload* w = named_workload(opt, "");
  if (w == nullptr) return 1;
  Session session(opt.session);

  // --plan: the saved plan must be live in the allocator before the
  // workload allocates anything, or heap sites would miss their padding.
  if (!opt.plan_file.empty()) {
    repair::RepairPlan loaded;
    if (!repair::load_plan_file(opt.plan_file, &loaded)) {
      std::fprintf(stderr, "cannot load repair plan from %s\n",
                   opt.plan_file.c_str());
      return 1;
    }
    std::fprintf(stderr, "plan: %zu entr%s installed from %s\n",
                 loaded.entries.size(),
                 loaded.entries.size() == 1 ? "y" : "ies",
                 opt.plan_file.c_str());
    session.allocator().install_repair_plan(
        std::make_shared<const repair::RepairPlan>(std::move(loaded)));
  }

  // --emit-to: publish this run's snapshot to a `serve` collector.
  std::unique_ptr<FdSink> emit;
  if (!opt.emit_to.empty()) {
    emit = open_emit_sink(opt.emit_to, session);
    if (!emit) return 1;
  }

  const auto traces = w->capture(session, opt.params);
  if (!opt.save_trace.empty()) {
    std::ofstream file(opt.save_trace, std::ios::binary | std::ios::trunc);
    const bool saved = file.is_open() && save_traces(file, traces);
    const auto bytes = static_cast<long long>(file.tellp());
    file.close();  // flushes: a failed last write must fail the save
    if (!saved || file.fail()) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   opt.save_trace.c_str());
      return 1;
    }
    const std::size_t events = total_events(traces);
    const double per_event =
        events > 0 ? static_cast<double>(bytes) / static_cast<double>(events)
                   : 0.0;
    std::fprintf(stderr, "trace: %zu events, %lld bytes (%.2f B/event) -> %s\n",
                 events, bytes, per_event, opt.save_trace.c_str());
  }
  wl::replay_into_session(session, traces, opt.replay_quantum);

  const Report report = session.report();
  std::vector<FixSuggestion> suggestions;
  repair::RepairPlan plan;
  if (opt.advise_fixes || emit) {
    suggestions = advise(report);
    plan = repair::compile_plan(report, suggestions,
                                session.runtime().callsites());
  }

  if (emit) {
    emit->send(session.publish());
    // The compiled plan rides along so a `serve --emit-plan` collector can
    // merge repair advice across the fleet, bracketed before the goodbye.
    // The session uid is stamped only on the emitted copy: local reports
    // stay byte-identical across runs (deterministic-replay invariant),
    // while the collector still gets per-session provenance.
    if (!plan.empty()) {
      repair::RepairPlan tagged = plan;
      tagged.origin_uid = session.uid();
      emit->send(repair::encode_plan_frame(tagged));
    }
    emit->send(session.goodbye_frame());
  }

  if (opt.json) {
    std::string doc =
        report_to_json(report, session.runtime().callsites(),
                       opt.advise_fixes ? &suggestions : nullptr,
                       opt.advise_fixes && !plan.empty() ? &plan : nullptr);
    if (opt.topology_set) {
      // Splice the topology verdict into the report document so --json
      // still emits exactly one parseable JSON object.
      std::string topo;
      run_topology_sim(opt, session, traces, &topo);
      doc.insert(doc.rfind('}'), ",\"topology\":" + topo);
    }
    std::printf("%s\n", doc.c_str());
  } else {
    std::printf("%s",
                format_report(report, session.runtime().callsites()).c_str());
    if (opt.advise_fixes) {
      std::printf("\n%s", format_suggestions(suggestions).c_str());
    }
    if (opt.topology_set) run_topology_sim(opt, session, traces, nullptr);
  }

  if (opt.diff_fix) {
    Session fixed_session(opt.session);
    wl::Params fixed_params = opt.params;
    fixed_params.fix_mask = ~0u;
    w->run_replay(fixed_session, fixed_params, opt.replay_quantum);
    const Report fixed_report = fixed_session.report();
    const ReportDiff diff =
        diff_reports(report, session.runtime().callsites(), fixed_report,
                     fixed_session.runtime().callsites());
    std::printf("\n=== buggy -> fixed diff ===\n%s",
                format_diff(diff).c_str());
  }

  if (opt.fail_on_findings && wl::false_sharing_findings(report) > 0) {
    return 2;
  }
  return 0;
}

struct Command {
  const char* name;     ///< argv[1]; "" for the default run
  const char* operand;  ///< placeholder of the positional, null if none
  unsigned scope;       ///< its bit in kFlags; 0: parses its own flags
  const char* summary;
  int (*run)(const Command& cmd, const Args& args);
};

// `analyze`: delegates to the shared analyze tool (also the library entry
// point the tests drive), which parses its own flags with the same parser.
int run_analyze_cmd(const Command& cmd, const Args& args) {
  ir::AnalyzeOptions aopt;
  std::string err;
  if (!ir::parse_analyze_args(args, &aopt, &err)) {
    return usage_error(cmd.name, err);
  }
  std::string out;
  const int rc = ir::run_analyze(aopt, &out, &err);
  if (!out.empty()) std::fputs(out.c_str(), stdout);
  if (!err.empty()) std::fprintf(stderr, "%s\n", err.c_str());
  return rc;
}

// Parses kFlags for `cmd`, then runs `Body` on the options.
template <int (*Body)(const CliOptions&)>
int with_flags(const Command& cmd, const Args& args) {
  CliOptions opt;
  opt.session.heap_size = 64 * 1024 * 1024;
  std::string err;
  if (!parse_flags(args, kFlags, cmd.scope, opt,
                   cmd.operand != nullptr ? &opt.workload : nullptr, &err)) {
    return usage_error(cmd.name, err);
  }
  return Body(opt);
}

const Command kCommands[] = {
    {"", nullptr, kRun,
     "replay --workload NAME under the detector and print its report",
     with_flags<run_default>},
    {"monitor", "NAME", kMonitor,
     "run NAME live on real threads, print rolling snapshots, then the "
     "report",
     with_flags<run_monitor>},
    {"serve", nullptr, kServe, "run a fleet collector on a unix socket",
     with_flags<run_serve>},
    {"fleet", "NAME", kFleet,
     "fork client processes replaying NAME into one collector and print "
     "the fleet rollup",
     with_flags<run_fleet>},
    {"repair", "[TARGET]", kRepair,
     "detect, plan, apply and verify a repair of a planted target; exit 0 "
     "iff proven (no TARGET: list them)",
     with_flags<run_repair>},
    {"analyze", "FILE.pir", 0,
     "static analysis of an IR module: CFG, loops, call graph, "
     "instrumentation ledger",
     run_analyze_cmd},
};

void print_help(const Command& cmd) {
  const bool top = *cmd.name == '\0';
  std::string out =
      std::string("usage: predator-cli ") + (top ? "[COMMAND]" : cmd.name);
  if (cmd.operand != nullptr) out += std::string(" ") + cmd.operand;
  out += " [flags]\n";
  if (top) {
    out += "\ncommands:\n";
    for (const Command& c : kCommands) {
      std::string head = *c.name != '\0' ? c.name : "(none)";
      if (c.operand != nullptr) head += std::string(" ") + c.operand;
      append_fmt(out, "  %-24s%s\n", head.c_str(), c.summary);
    }
    out += "\nflags of the default run (`predator-cli COMMAND --help` lists "
           "each command's own):\n";
  } else {
    append_fmt(out, "%s\n\nflags:\n", cmd.summary);
  }
  out += cmd.scope != 0
             ? flag_help<CliOptions>(kFlags, cmd.scope)
             : flag_help<ir::AnalyzeOptions>(ir::analyze_flags(), ~0u);
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = &kCommands[0];
  for (const Command& c : kCommands) {
    if (argc > 1 && *c.name != '\0' && std::strcmp(argv[1], c.name) == 0) {
      cmd = &c;
    }
  }
  const Args args(argv + (cmd == &kCommands[0] ? 1 : 2), argv + argc);
  if (std::find_if(args.begin(), args.end(), [](const std::string& a) {
        return a == "--help" || a == "-h";
      }) != args.end()) {
    print_help(*cmd);
    return 0;
  }
  // A dead collector must surface as a failed send, not a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  return cmd->run(*cmd, args);
}
