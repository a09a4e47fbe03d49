#include "workloads.h"

#include <stdexcept>
#include <vector>

#include "topo/dynamics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace dmn;

// Payload of every CBR packet. With 512 B (4096 bit) packets the rates
// below give whole-nanosecond send intervals, so "offered rate x duration"
// is exact and the per-flow conservation oracle needs no rounding slack.
constexpr std::size_t kPacketBytes = 512;

/// Block-diagonal campus: `buildings` radio-isolated buildings, each a chain
/// of APs that carrier-sense their neighbours, each AP with its clients.
/// Cross-building pairs keep kRssFaint, far below receiver sensitivity, so
/// every building is its own interference partition.
topo::Topology block_campus(const Shape& s, Rng& rng) {
  topo::ManualTopologyBuilder b;
  const std::size_t aps_per_building = s.aps / s.buildings;
  for (std::size_t k = 0; k < s.buildings; ++k) {
    topo::NodeId prev = topo::kNoNode;
    for (std::size_t a = 0; a < aps_per_building; ++a) {
      const topo::NodeId ap = b.add_ap();
      // Above carrier sense (-82 dBm), below association (-80 dBm).
      if (prev != topo::kNoNode) b.set_rss(prev, ap, rng.uniform(-81.6, -80.4));
      std::vector<topo::NodeId> cell;
      for (std::size_t c = 0; c < s.clients_per_ap; ++c) {
        const topo::NodeId client = b.add_client(ap);
        b.set_rss(ap, client, rng.uniform(-60.0, -48.0));
        // Clients of one cell share a floor and carrier-sense each other.
        for (const topo::NodeId peer : cell) {
          b.set_rss(peer, client, rng.uniform(-78.0, -66.0));
        }
        cell.push_back(client);
      }
      prev = ap;
    }
  }
  return b.build();
}

/// Dense-roam layout: every AP's first kWalkers clients walk; kChurners of
/// the others leave once and rejoin within the run.
constexpr std::size_t kWalkers = 2;
constexpr std::size_t kChurners = 30;

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "campus") {
    Shape s;
    s.buildings = 10;
    s.aps = 100;
    s.clients_per_ap = 8;
    s.downlink_bps = 512e3;
    s.uplink_bps = 256e3;
    return {Kind::kCampus, name, seed, s, sec(0.05), 1, 2};
  }
  if (name == "metro") {
    Shape s;
    s.buildings = 20;
    s.aps = 200;
    s.clients_per_ap = 12;
    s.downlink_bps = 128e3;
    s.uplink_bps = 64e3;
    return {Kind::kMetro, name, seed, s, sec(1.0), 1, 2};
  }
  if (name == "dense-roam") {
    Shape s;
    s.aps = 4;
    s.clients_per_ap = 60;
    s.churn_eligible = kChurners;
    s.downlink_bps = 32e3;
    s.uplink_bps = 16e3;
    return {Kind::kDenseRoam, name, seed, s, sec(1.0), 1, 1};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected campus, metro or dense-roam)");
}

topo::Topology build_topology(const Workload& w) {
  Rng rng(w.seed);
  if (w.kind == Kind::kDenseRoam) {
    return topo::make_floorplan_topology({}, w.shape.aps,
                                         w.shape.clients_per_ap, {}, rng);
  }
  return block_campus(w.shape, rng);
}

api::ExperimentConfig make_config(const Workload& w,
                                  const topo::Topology& topo,
                                  TimeNs duration, int sim_threads,
                                  audit::AuditMode audit) {
  api::ExperimentConfig cfg;
  cfg.scheme = w.kind == Kind::kMetro ? api::Scheme::kDcf
                                      : api::Scheme::kDomino;
  cfg.duration = duration;
  cfg.seed = w.seed;
  cfg.sim_threads = sim_threads;
  cfg.audit.mode = audit;
  cfg.traffic.kind = api::TrafficKind::kUdp;
  cfg.traffic.packet_bytes = kPacketBytes;
  cfg.traffic.downlink_bps = w.shape.downlink_bps;
  cfg.traffic.uplink_bps = w.shape.uplink_bps;
  if (w.kind != Kind::kDenseRoam) return cfg;

  cfg.rop.poll_mode = rop::PollMode::kAdaptive;
  topo::DynamicsPlan& d = cfg.dynamics;
  d.epoch = msec(50);
  d.roam.enabled = true;
  d.roam.hysteresis_db = 2.0;
  d.roam.min_dwell = msec(100);
  Rng walk_rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<topo::NodeId> sessile;
  for (std::size_t a = 0; a < w.shape.aps; ++a) {
    for (std::size_t c = 0; c < w.shape.clients_per_ap; ++c) {
      const auto id = static_cast<topo::NodeId>(
          w.shape.aps + a * w.shape.clients_per_ap + c);
      if (c < kWalkers) {
        // Walkers start next to the other AP of their building while still
        // associated with their own (sticky clients), so every seed roams
        // at the first epoch; then they wander at walking pace.
        const topo::Position partner =
            topo.node(static_cast<topo::NodeId>((a + 2) % w.shape.aps)).pos;
        const topo::Position start{partner.x + walk_rng.uniform(-4.0, 4.0),
                                   partner.y + walk_rng.uniform(-4.0, 4.0)};
        d.trajectories.push_back(topo::make_random_waypoint_trajectory(
            d.floorplan, id, start, 1.5, w.duration, walk_rng));
      } else {
        sessile.push_back(id);
      }
    }
  }
  // Churn: each churner leaves at a uniform time in the first half of the
  // run and rejoins after a uniform downtime. Uniform times are a Poisson
  // process conditioned on its count, so churn stays Poisson-timed while
  // every seed makes the same number of membership changes (each one
  // rebuilds the conflict graph, the cost this workload exists to show).
  Rng churn_rng(w.seed ^ 0xc2b2ae3d27d4eb4full);
  churn_rng.shuffle(sessile);
  const double run_s = to_sec(w.duration);
  for (std::size_t i = 0; i < w.shape.churn_eligible; ++i) {
    const double leave = churn_rng.uniform(0.05, 0.55) * run_s;
    const double back = leave + churn_rng.uniform(0.1, 0.4) * run_s;
    d.membership.push_back({sec(leave), sessile[i], false});
    d.membership.push_back({sec(back), sessile[i], true});
  }
  return cfg;
}

}  // namespace perfbench
