#pragma once
// The benchmark's three workloads. Each is a pure function of the seed: the
// generator draws every random input (RSS jitter, floor-plan positions,
// walker trajectories, the experiment seed) from it, so the same seed always
// yields the same topology and configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "topo/topology.h"

namespace perfbench {

enum class Kind { kCampus, kMetro, kDenseRoam };

/// What the generator built, kept as ground truth for the oracles.
struct Shape {
  std::size_t buildings = 0;  // radio-isolated buildings (static only)
  std::size_t aps = 0;
  std::size_t clients_per_ap = 0;
  /// Clients eligible for seeded churn (dense-roam only).
  std::size_t churn_eligible = 0;
  /// Offered CBR rate of every downlink / uplink flow, bit/s.
  double downlink_bps = 0.0;
  double uplink_bps = 0.0;
};

struct Workload {
  Kind kind;
  std::string name;
  std::uint64_t seed;
  Shape shape;
  /// Simulated length of one experiment.
  dmn::TimeNs duration;
  /// Worker threads pinned for the timed repetitions.
  int sim_threads;
  /// Worker threads of the audited check run. On the partitioned workloads
  /// it differs from sim_threads, so the same run checks that results do
  /// not depend on the thread count.
  int check_threads;
};

/// Parses a workload name; throws std::invalid_argument on an unknown one.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Builds the workload's topology from its seed.
dmn::topo::Topology build_topology(const Workload& w);

/// The experiment configuration for `topo`, every knob set explicitly:
/// scheme, traffic, duration, seed, sim threads (>= 1; 0 would defer to the
/// environment) and audit mode.
dmn::api::ExperimentConfig make_config(const Workload& w,
                                       const dmn::topo::Topology& topo,
                                       dmn::TimeNs duration, int sim_threads,
                                       dmn::audit::AuditMode audit);

}  // namespace perfbench
