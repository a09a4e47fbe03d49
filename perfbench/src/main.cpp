// Benchmark program for the DOMINO simulator.
//
//   perfbench --workload <campus|metro|dense-roam> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-file <path>]
//
// Repeats the workload's experiment (an "operation") for --seconds of host
// time, at least twice, then runs the contract checks and oracles outside
// the timed region. The last line of stdout is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). In a
// traced run every other repetition records spans; the untraced ones give
// the tracing overhead. Exit code 1 when any check fails, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "oracles.h"
#include "replay.h"
#include "topo/partition.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace dmn;
using Clock = std::chrono::steady_clock;

/// Every workload repeats its experiment at least this often, so setup and
/// wall time are medians and repeatability is checked on every run.
constexpr std::size_t kMinIterations = 2;

/// Audit invariants known to trip on some seeds of a workload because of a
/// program fault; their violations are reported, not failed (see
/// perfbench/README.md).
std::vector<std::string> known_audit_findings(const Workload& w) {
  if (w.kind == Kind::kDenseRoam) return {"rop.starved-client"};
  return {};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have[1] = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have[2] = end != val.c_str() && *end == '\0' && a.seconds > 0.0 &&
                a.seconds <= 600.0;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have[3] = val == "0" || val == "1";
    } else if (key == "--trace-file") {
      a.trace_file = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  return a;
}

/// The benchmark sets every knob in code; DMN_* variables (audit mode, sim
/// threads, graph margin, debug output, ...) must not change what is timed.
void drop_program_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DMN_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident memory of this process image, in MB. Read from VmHWM:
/// getrusage's ru_maxrss carries over the launching process's peak across
/// fork and exec, and run.py's python3 peaks higher than dense-roam does.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One operation: generate the topology, build and run the experiment,
/// tear it down.
struct Iteration {
  bool traced = false;
  double setup_s = 0.0;  // generation + construction + wall_setup_seconds
  double run_s = 0.0;    // event loop
  double wall_s = 0.0;   // everything, teardown included
  api::ExperimentResult result;
  std::string bytes;     // serialize_result
};

Iteration run_iteration(const Workload& w, Tracer& tracer, TimeNs duration,
                        int sim_threads, audit::AuditMode audit) {
  Iteration it;
  it.traced = tracer.enabled();
  auto root = tracer.span("workload");
  const Clock::time_point t0 = Clock::now();
  std::optional<topo::Topology> topo;
  api::ExperimentConfig cfg;
  {
    auto span = tracer.span("topo.build");
    topo.emplace(build_topology(w));
    cfg = make_config(w, *topo, duration, sim_threads, audit);
  }
  std::unique_ptr<api::Experiment> exp;
  {
    auto span = tracer.span("api.construct");
    exp = std::make_unique<api::Experiment>(*topo, cfg);
  }
  const double before_run = seconds_since(t0);
  {
    auto span = tracer.span("api.run");
    it.result = exp->run();
  }
  {
    auto span = tracer.span("api.teardown");
    exp.reset();
    topo.reset();
  }
  it.wall_s = seconds_since(t0);
  it.setup_s = before_run + it.result.wall_setup_seconds;
  it.run_s = it.result.wall_run_seconds;
  it.bytes = api::serialize_result(it.result);
  return it;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs one operation, counting it; an exception counts as a failure.
std::optional<Iteration> attempt(Tally& tally, const Workload& w,
                                 Tracer& tracer, TimeNs duration,
                                 int sim_threads, audit::AuditMode audit) {
  ++tally.attempted;
  try {
    return run_iteration(w, tracer, duration, sim_threads, audit);
  } catch (const std::exception& e) {
    ++tally.failed;
    std::fprintf(stderr, "operation failed: %s\n", e.what());
    return std::nullopt;
  }
}

void check_result(Checks& checks, const Workload& w,
                  const topo::Topology& topo, const api::ExperimentConfig& cfg,
                  const api::ExperimentResult& r) {
  TrafficModel m;
  m.duration_s = to_sec(w.duration);
  m.payload_bytes = cfg.traffic.packet_bytes;
  m.mac_header_bytes = cfg.wifi.mac_header_bytes;
  m.data_rate_bps = cfg.wifi.data_rate_bps;
  m.aps = w.shape.aps;
  m.roaming = cfg.dynamics.roam.enabled;
  std::vector<FlowOutcome> flows;
  for (const api::LinkResult& l : r.links) {
    flows.push_back({l.uplink ? l.flow.dst : l.flow.src,
                     l.uplink ? w.shape.uplink_bps : w.shape.downlink_bps,
                     l.delivered});
  }
  check_traffic(checks, m, flows);
  checks.expect(r.aggregate_throughput_bps > 0.0, "traffic.goodput",
                "no goodput delivered");

  if (w.kind == Kind::kDenseRoam) {
    check_lifecycle(checks, {r.lifecycle_joins, r.lifecycle_leaves,
                             r.lifecycle_roams, r.lifecycle_rss_updates,
                             w.shape.churn_eligible});
  } else {
    check_partitions(checks, w.shape.buildings,
                     topo::compute_partitions(topo).count);
    checks.expect(r.sim_partitions == w.shape.buildings, "sim.partitioned",
                  "run used " + std::to_string(r.sim_partitions) +
                      " partitions, expected " +
                      std::to_string(w.shape.buildings));
  }
  const std::size_t per_round = cfg.rop.poll_mode == rop::PollMode::kLegacy
                                    ? 1
                                    : cfg.rop.max_poll_symbols;
  check_poll_totals(checks, r.domino_poll_rounds, r.domino_poll_symbols,
                    per_round);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  Checks checks;
  self_test(checks);
  if (!checks.passed()) {
    for (const std::string& f : checks.failures()) {
      std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());
    }
    return 1;
  }
  std::fprintf(stderr, "oracle self-test: %zu properties, every corruption "
               "caught\n", checks.evaluated());

  // ---- timed region ------------------------------------------------------
  Tally tally;
  Tracer tracer(args.trace);
  Tracer untraced(false);
  std::vector<Iteration> its;
  const Clock::time_point start = Clock::now();
  while (tally.attempted < kMinIterations ||
         seconds_since(start) < args.seconds) {
    // A traced run alternates untraced and traced repetitions.
    Tracer& tr = args.trace && tally.attempted % 2 == 1 ? tracer : untraced;
    auto it = attempt(tally, w, tr, w.duration, w.sim_threads,
                      audit::AuditMode::kOff);
    if (!it) continue;
    std::fprintf(stderr,
                 "repetition %zu%s: wall %.3f s, setup %.3f s, run %.3f s\n",
                 its.size() + 1, it->traced ? " (traced)" : "", it->wall_s,
                 it->setup_s, it->run_s);
    its.push_back(std::move(*it));
  }
  const double rss_mb = peak_rss_mb();
  if (its.empty()) {
    std::fprintf(stderr, "every operation failed\n");
    return 1;
  }

  // ---- contract checks and oracles, outside the timed region -------------
  const Iteration& first = its.front();
  for (std::size_t i = 1; i < its.size(); ++i) {
    check_identical(checks, "contract.repeatable (same seed, run 1 vs " +
                                std::to_string(i + 1) + ")",
                    first.bytes, its[i].bytes);
  }
  // On the partitioned workloads the audited run also changes the thread
  // count, so one run checks thread invariance and audit passivity.
  std::optional<Iteration> audited;
  {
    auto span = tracer.span("audit.run");
    audited = attempt(tally, w, untraced, w.duration, w.check_threads,
                      audit::AuditMode::kRecord);
  }
  if (audited) {
    check_identical(checks,
                    "contract.threads-and-audit (" +
                        std::to_string(w.sim_threads) +
                        " threads unaudited vs " +
                        std::to_string(w.check_threads) + " audited)",
                    first.bytes, audited->bytes);
    if (audited->result.audit == nullptr) {
      checks.expect(false, "audit.report", "audited run returned no report");
    } else {
      const auto known = known_audit_findings(w);
      check_audit(checks, *audited->result.audit, known);
      for (const auto& [inv, n] :
           audited->result.audit->violations_by_invariant) {
        if (std::find(known.begin(), known.end(), inv) != known.end()) {
          std::fprintf(stderr, "known finding: %llu violations of %s\n",
                       static_cast<unsigned long long>(n), inv.c_str());
        }
      }
    }
  }

  const topo::Topology topo = build_topology(w);
  const api::ExperimentConfig cfg =
      make_config(w, topo, w.duration, w.sim_threads, audit::AuditMode::kOff);
  check_result(checks, w, topo, cfg, first.result);

  ReplayContext ctx{w, cfg, tracer, checks};
  const topo::Topology replay_topo = replay_topology(w, topo);
  replay_domino(ctx, replay_topo);
  replay_rop(ctx, replay_topo);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup, wall, speed;
    for (const Iteration& it : its) {
      setup.push_back(it.setup_s);
      wall.push_back(it.wall_s);
      speed.push_back(ratio(to_sec(w.duration), it.run_s));
    }
    metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"sim_speed", median(speed), "sim_s/s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"goodput_mbps", first.result.aggregate_throughput_bps / 1e6,
         "Mbit/s"},
    };
  } else {
    // The timed repetitions run one thread, which never waits at a barrier;
    // the partitioned workloads measure the barrier share at check_threads.
    std::vector<double> barrier;
    if (w.check_threads != w.sim_threads) {
      auto span = tracer.span("sim.threaded_run");
      if (auto it = attempt(tally, w, untraced, w.duration, w.check_threads,
                            audit::AuditMode::kOff)) {
        barrier.push_back(ratio(it->result.sim_barrier_seconds, it->run_s));
      }
    }
    const std::uint64_t edges = replay_setup(ctx, topo);
    const std::size_t transmissions = replay_phy_tx(ctx, replay_topo);
    replay_topology_refresh(ctx, replay_topo);
    replay_membership(ctx, replay_topo);

    std::vector<double> setup, run_s, finish, events, eps, traced_wall,
        plain_wall;
    for (const Iteration& it : its) {
      (it.traced ? traced_wall : plain_wall).push_back(it.wall_s);
      if (!it.traced) continue;
      setup.push_back(it.setup_s);
      run_s.push_back(it.run_s);
      finish.push_back(it.wall_s - it.setup_s - it.run_s);
      events.push_back(static_cast<double>(it.result.events_executed));
      eps.push_back(ratio(static_cast<double>(it.result.events_executed),
                          it.run_s));
      if (w.check_threads == w.sim_threads) {
        barrier.push_back(ratio(it.result.sim_barrier_seconds, it.run_s));
      }
    }
    const api::ExperimentResult& r = first.result;
    const double n = static_cast<double>(topo.num_nodes());
    const double rows = static_cast<double>(r.domino_rows_executed);
    const double missed = static_cast<double>(r.domino_missed_rows);
    const double tx_total = [&] {
      double s = 0.0;
      for (double d : tracer.durations("phy.transmit")) s += d;
      return s;
    }();
    const double audited_wall = audited ? audited->wall_s : 0.0;
    metrics = {
        {"api.setup_s", median(setup), "s"},
        {"api.run_s", median(run_s), "s"},
        {"api.finish_s", median(finish), "s"},
        {"topo.build_s", median(tracer.self_times("topo.build")), "s"},
        {"topo.conflict_build_s",
         median(tracer.self_times("topo.conflict_build")), "s"},
        {"topo.census_s", median(tracer.self_times("topo.census")), "s"},
        {"topo.partition_s", median(tracer.self_times("topo.partition")), "s"},
        {"topo.nodes", n, "count"},
        {"topo.links",
         static_cast<double>(topo.make_links(true, true).size()),
         "count"},
        {"topo.conflict_edges", static_cast<double>(edges), "count"},
        {"topo.matrix_mb", n * n * 16.0 / 1e6, "MB_computed"},
        {"sim.events", median(events), "count"},
        {"sim.events_per_s", median(eps), "1/s"},
        {"sim.windows", static_cast<double>(r.sim_windows), "count"},
        {"sim.barrier_share", median(barrier), "ratio"},
        {"phy.tx_us", 1e6 * ratio(tx_total, static_cast<double>(transmissions)),
         "us"},
        {"mac.ack_timeouts", static_cast<double>(r.ack_timeouts), "count"},
        {"mac.drops", static_cast<double>(r.mac_drops), "count"},
        {"domino.plan_ms", 1e3 * median(tracer.durations("domino.plan_batch")),
         "ms"},
        {"domino.convert_ms",
         1e3 * median(tracer.durations("domino.convert")), "ms"},
        {"domino.batches", static_cast<double>(r.domino_batches), "count"},
        {"domino.rows", rows, "count"},
        {"domino.row_yield", ratio(rows, rows + missed), "ratio"},
        {"domino.self_starts", static_cast<double>(r.domino_self_starts),
         "count"},
        {"domino.untriggerable", static_cast<double>(r.domino_untriggerable),
         "count"},
        {"rop.plan_us", 1e6 * median(tracer.durations("rop.plan")), "us"},
        {"rop.rounds", static_cast<double>(r.domino_poll_rounds), "count"},
        {"rop.symbols", static_cast<double>(r.domino_poll_symbols), "count"},
        {"rop.symbols_per_round",
         ratio(static_cast<double>(r.domino_poll_symbols),
               static_cast<double>(r.domino_poll_rounds)),
         "ratio"},
        {"rop.staleness_rounds", r.domino_poll_staleness_rounds, "rounds"},
        {"api.lifecycle.epochs", static_cast<double>(r.lifecycle_epochs),
         "count"},
        {"api.lifecycle.rss_updates",
         static_cast<double>(r.lifecycle_rss_updates), "count"},
        {"api.lifecycle.joins", static_cast<double>(r.lifecycle_joins),
         "count"},
        {"api.lifecycle.leaves", static_cast<double>(r.lifecycle_leaves),
         "count"},
        {"api.lifecycle.roams", static_cast<double>(r.lifecycle_roams),
         "count"},
        {"api.lifecycle.rejections",
         static_cast<double>(r.lifecycle_roam_rejections +
                             r.lifecycle_join_rejections),
         "count"},
        {"topo.graph_rebuild_ms",
         1e3 * median(tracer.durations("topo.graph_rebuild")), "ms"},
        {"phy.topology_refresh_ms",
         1e3 * median(tracer.durations("phy.topology_refresh")), "ms"},
        {"audit.checks",
         audited && audited->result.audit
             ? static_cast<double>(audited->result.audit->checks_run)
             : 0.0,
         "count"},
        {"audit.slowdown", ratio(audited_wall, first.wall_s), "ratio"},
        {"trace.overhead_pct",
         100.0 * (ratio(median(traced_wall), median(plain_wall)) - 1.0), "%"},
    };
    if (!args.trace_file.empty() && !tracer.write(args.trace_file)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.trace_file.c_str());
    }
  }

  for (const auto& [property, counts] : checks.by_property()) {
    std::fprintf(stderr, "check %s: %zu evaluated, %zu failed\n",
                 property.c_str(), counts.first, counts.second);
  }
  for (const std::string& f : checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());
  }
  std::fprintf(stderr, "%zu properties checked, %zu failed; %zu timed "
               "repetitions\n", checks.evaluated(), checks.failures().size(),
               its.size());
  print_result(checks.passed(), tally, metrics);
  return checks.passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::drop_program_environment();
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <campus|metro|dense-roam> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }
}
