// Results must not depend on environment variables below the API. Earlier
// builds read four debugging knobs deep inside the simulator —
// DMN_GRAPH_MARGIN (the conflict graph's pairwise margin, cached in a
// function-local static on first use), DMN_CLIENT_SNAP, DMN_PLAN_DEBUG and
// DMN_MEDIUM_TRACE — and the first of them changed results without being
// part of hash_config. This test runs one DOMINO and one DCF experiment
// (plus a dynamic DOMINO run, which rebuilds its graph on every membership
// change) in two fresh child processes of this binary, one with the knobs
// set to hostile values from process start and one with them unset, and
// asserts serialize_result is byte-identical. Child processes matter: a
// setenv after an earlier graph build in the same process would be invisible
// to a cached read and so prove nothing.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "topo/dynamics.h"
#include "topo/topology.h"

namespace dmn {
namespace {

constexpr const char* kKnobs[] = {"DMN_GRAPH_MARGIN", "DMN_CLIENT_SNAP",
                                  "DMN_PLAN_DEBUG", "DMN_MEDIUM_TRACE"};
constexpr const char* kHostileValues[] = {"40", "1", "1", "1"};

api::ExperimentConfig cbr(api::Scheme s) {
  api::ExperimentConfig cfg;
  cfg.scheme = s;
  cfg.duration = msec(300);
  cfg.seed = 3;
  cfg.traffic.downlink_bps = 6e6;
  cfg.traffic.uplink_bps = 2e6;
  return cfg;
}

/// Label -> serialize_result for the battery, run in this process.
std::map<std::string, std::string> run_battery() {
  std::map<std::string, std::string> out;
  Rng rng(7);
  const auto rnd = topo::Topology::random_network(6, 2, 400.0,
                                                  topo::LogDistanceModel{},
                                                  {}, rng);
  out["DOMINO"] = api::serialize_result(
      api::run_experiment(rnd, cbr(api::Scheme::kDomino)));
  out["DCF"] = api::serialize_result(
      api::run_experiment(rnd, cbr(api::Scheme::kDcf)));

  Rng frng(2);
  const auto fp = topo::make_floorplan_topology({}, 4, 8, {}, frng);
  api::ExperimentConfig dyn = cbr(api::Scheme::kDomino);
  dyn.traffic.packet_bytes = 512;
  dyn.traffic.downlink_bps = 64e3;
  dyn.traffic.uplink_bps = 32e3;
  dyn.rop.poll_mode = rop::PollMode::kAdaptive;
  dyn.dynamics.epoch = msec(50);
  dyn.dynamics.roam.enabled = true;
  dyn.dynamics.churn_rate_hz = 3.0;
  dyn.dynamics.churn_downtime = msec(100);
  out["DOMINO-dynamic"] = api::serialize_result(api::run_experiment(fp, dyn));
  return out;
}

/// Runs this binary's DISABLED_PrintResults in a child process under `env`
/// arguments and parses its "RESULT <label> <json>" lines.
std::map<std::string, std::string> run_child(const std::string& env_args) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return {};
  exe[n] = '\0';
  const std::string cmd = "env " + env_args + " '" + exe +
                          "' --gtest_also_run_disabled_tests "
                          "--gtest_filter=HostileEnv.DISABLED_PrintResults "
                          "2>/dev/null";
  std::map<std::string, std::string> out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  std::string line;
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (line.rfind("RESULT ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      out[line.substr(7, sp - 7)] = line.substr(sp + 1);
    }
    line.clear();
  }
  pclose(pipe);
  return out;
}

// Child entry point; skipped in normal runs (gtest's DISABLED_ prefix).
TEST(HostileEnv, DISABLED_PrintResults) {
  for (const auto& [label, bytes] : run_battery()) {
    std::printf("RESULT %s %s\n", label.c_str(), bytes.c_str());
  }
}

TEST(HostileEnv, KnobsBelowTheApiDoNotChangeResults) {
  std::string clean;
  std::string hostile;
  for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
    clean += std::string(" -u ") + kKnobs[i];
    hostile += std::string(" ") + kKnobs[i] + "=" + kHostileValues[i];
  }
  const auto reference = run_child(clean);
  const auto perturbed = run_child(hostile);
  ASSERT_EQ(reference.size(), 3u) << "clean child produced no results";
  ASSERT_EQ(perturbed.size(), 3u) << "hostile child produced no results";
  for (const auto& [label, bytes] : reference) {
    EXPECT_EQ(perturbed.at(label), bytes) << label;
  }
}

}  // namespace
}  // namespace dmn
