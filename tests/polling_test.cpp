// Multi-symbol / adaptive ROP polling (rop/poll_planner.h + the DOMINO
// stack wiring): the dense-population battery that pins the >24-client/AP
// subsystem. Covers the legacy differential oracle (multi-symbol mode at
// populations that fit one symbol is byte-identical to the paper's
// single-symbol ROP), dense admission up to rop.client_capacity(), adaptive
// airtime savings, audit cleanliness, and thread-count byte-stability.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/sweep_io.h"
#include "audit/audit.h"
#include "rop/poll_planner.h"
#include "topo/dynamics.h"
#include "topo/topology.h"

namespace dmn::api {
namespace {

topo::Topology dense(std::size_t aps, std::size_t clients_per_ap,
                     std::uint64_t seed) {
  Rng rng(seed);
  return topo::make_floorplan_topology({}, aps, clients_per_ap, {}, rng);
}

ExperimentConfig polled_cfg(rop::PollMode mode,
                            TimeNs duration = msec(300)) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDomino;
  cfg.duration = duration;
  cfg.traffic.downlink_bps = 4e6;
  cfg.traffic.uplink_bps = 1e6;  // exercises queue reports through ROP
  cfg.rop.poll_mode = mode;
  cfg.audit.mode = audit::AuditMode::kRecord;
  return cfg;
}

TEST(PollMode, ToStringNames) {
  EXPECT_STREQ(rop::to_string(rop::PollMode::kLegacy), "legacy");
  EXPECT_STREQ(rop::to_string(rop::PollMode::kMultiSymbol), "multi_symbol");
  EXPECT_STREQ(rop::to_string(rop::PollMode::kAdaptive), "adaptive");
}

TEST(PollMode, ClientCapacityByMode) {
  rop::RopParams p;
  EXPECT_EQ(p.client_capacity(), 24u);  // legacy: one symbol
  p.poll_mode = rop::PollMode::kMultiSymbol;
  EXPECT_EQ(p.client_capacity(), 24u * 11u);
  p.max_poll_symbols = 3;
  EXPECT_EQ(p.client_capacity(), 72u);
  p.poll_mode = rop::PollMode::kAdaptive;
  EXPECT_EQ(p.client_capacity(), 72u);
}

// ---- differential oracle ----------------------------------------------------
// At populations that fit a single poll symbol (<= 24 clients/AP) the
// multi-symbol machinery must degenerate exactly: one-symbol rounds, the
// same RSS-sorted subchannel packing, identical response timing. The
// serialized result — every scheme, every counter — is byte-identical to
// legacy mode, which itself takes the pre-multi-symbol code path.

TEST(PollingOracle, MultiSymbolMatchesLegacyUnder24PerAp) {
  const auto t = dense(2, 12, 21);
  auto legacy = polled_cfg(rop::PollMode::kLegacy);
  auto multi = polled_cfg(rop::PollMode::kMultiSymbol);
  for (const Scheme s : {Scheme::kDcf, Scheme::kCentaur, Scheme::kDomino,
                         Scheme::kOmniscient}) {
    legacy.scheme = s;
    multi.scheme = s;
    const std::string a = serialize_result(run_experiment(t, legacy));
    const std::string b = serialize_result(run_experiment(t, multi));
    EXPECT_EQ(a, b) << "scheme " << to_string(s)
                    << " diverged between legacy and multi_symbol polling";
  }
}

TEST(PollingOracle, MultiSymbolMatchesLegacyAtExactlyFullSymbol) {
  const auto t = dense(1, 24, 33);
  const auto a = serialize_result(
      run_experiment(t, polled_cfg(rop::PollMode::kLegacy)));
  const auto b = serialize_result(
      run_experiment(t, polled_cfg(rop::PollMode::kMultiSymbol)));
  EXPECT_EQ(a, b);
}

// ---- dense admission --------------------------------------------------------

TEST(DensePolling, AcceptsTwoHundredClientsPerAp) {
  const auto t = dense(1, 200, 7);
  auto cfg = polled_cfg(rop::PollMode::kMultiSymbol, msec(60));
  const auto r = run_experiment(t, cfg);
  // 200 clients need ceil(200/24) = 9 <= 11 symbols; the run must complete,
  // poll, and stay violation-free.
  ASSERT_NE(r.audit, nullptr);
  EXPECT_TRUE(r.audit->violation_free()) << r.audit->summary();
  EXPECT_GT(r.domino_poll_rounds, 0u);
  EXPECT_GT(r.domino_poll_symbols, r.domino_poll_rounds)
      << "a 200-client round must span multiple poll symbols";
}

TEST(DensePolling, RejectsOverCapacityWithSymbolMessage) {
  const auto t = dense(1, 49, 11);
  auto cfg = polled_cfg(rop::PollMode::kMultiSymbol, msec(20));
  cfg.rop.max_poll_symbols = 2;  // capacity 48 < 49 clients
  try {
    run_experiment(t, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "clients but 2 poll symbols x 24 subchannels cap a BSS "
                  "at 48 clients"),
              std::string::npos)
        << e.what();
  }
}

TEST(DensePolling, LegacyStillRejectsOver24) {
  const auto t = dense(1, 25, 11);
  auto cfg = polled_cfg(rop::PollMode::kLegacy, msec(20));
  EXPECT_THROW(run_experiment(t, cfg), std::invalid_argument);
}

// ---- adaptive mode ----------------------------------------------------------

TEST(DensePolling, AdaptiveViolationFreeAndSavesPollAirtime) {
  const auto t = dense(1, 60, 17);
  auto base = polled_cfg(rop::PollMode::kMultiSymbol, msec(200));
  base.traffic.uplink_bps = 2e5;  // mostly-idle uplink population
  auto adaptive = base;
  adaptive.rop.poll_mode = rop::PollMode::kAdaptive;

  const auto rs = run_experiment(t, base);
  const auto ra = run_experiment(t, adaptive);
  ASSERT_NE(ra.audit, nullptr);
  EXPECT_TRUE(ra.audit->violation_free()) << ra.audit->summary();
  ASSERT_GT(rs.domino_poll_rounds, 0u);
  ASSERT_GT(ra.domino_poll_rounds, 0u);
  // Static multi-symbol polls all 60 clients (3 symbols) every round; the
  // adaptive planner shrinks mostly-idle rounds, so its per-round symbol
  // cost must be strictly lower.
  const double static_spr = static_cast<double>(rs.domino_poll_symbols) /
                            static_cast<double>(rs.domino_poll_rounds);
  const double adaptive_spr = static_cast<double>(ra.domino_poll_symbols) /
                              static_cast<double>(ra.domino_poll_rounds);
  EXPECT_LT(adaptive_spr, static_spr);
  // Deferred polls trade airtime for staleness: the adaptive mean must be
  // bounded by the configured max interval.
  EXPECT_GE(ra.domino_poll_staleness_rounds, 0.0);
  EXPECT_LT(ra.domino_poll_staleness_rounds,
            static_cast<double>(adaptive.rop.adaptive_max_interval));
}

// ---- determinism ------------------------------------------------------------

TEST(DensePolling, DenseRunsAreSeedDeterministic) {
  const auto t = dense(2, 40, 29);
  auto cfg = polled_cfg(rop::PollMode::kAdaptive, msec(120));
  const auto a = serialize_result(run_experiment(t, cfg));
  const auto b = serialize_result(run_experiment(t, cfg));
  EXPECT_EQ(a, b);
}

TEST(DensePolling, ByteStableAcrossSimThreads) {
  const auto t = dense(4, 30, 3);
  for (const rop::PollMode mode :
       {rop::PollMode::kMultiSymbol, rop::PollMode::kAdaptive}) {
    auto cfg = polled_cfg(mode, msec(120));
    cfg.sim_threads = 1;
    const auto serial = serialize_result(run_experiment(t, cfg));
    cfg.sim_threads = 4;
    const auto parallel = serialize_result(run_experiment(t, cfg));
    EXPECT_EQ(serial, parallel)
        << "mode " << rop::to_string(mode)
        << " diverged between 1 and 4 sim threads";
  }
}

// ---- poll-interval bound at the air -----------------------------------------

/// Four APs x 60 clients on the two-building floor plan with adaptive
/// polling and CBR traffic, audited. Two walkers per AP start next to
/// another AP (so they roam at the first epoch) and 30 sessile clients
/// leave once and rejoin within the run.
ExperimentConfig dense_roam_cfg(const topo::Topology& t, std::uint64_t seed,
                                TimeNs duration) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kDomino;
  cfg.duration = duration;
  cfg.seed = seed;
  cfg.traffic.packet_bytes = 512;
  cfg.traffic.downlink_bps = 32e3;
  cfg.traffic.uplink_bps = 16e3;
  cfg.rop.poll_mode = rop::PollMode::kAdaptive;
  cfg.audit.mode = audit::AuditMode::kRecord;
  topo::DynamicsPlan& d = cfg.dynamics;
  d.epoch = msec(50);
  d.roam.enabled = true;
  d.roam.hysteresis_db = 2.0;
  d.roam.min_dwell = msec(100);
  Rng walk_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<topo::NodeId> sessile;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t c = 0; c < 60; ++c) {
      const auto id = static_cast<topo::NodeId>(4 + a * 60 + c);
      if (c >= 2) {
        sessile.push_back(id);
        continue;
      }
      const topo::Position partner =
          t.node(static_cast<topo::NodeId>((a + 2) % 4)).pos;
      d.trajectories.push_back(topo::make_random_waypoint_trajectory(
          d.floorplan, id,
          {partner.x + walk_rng.uniform(-4.0, 4.0),
           partner.y + walk_rng.uniform(-4.0, 4.0)},
          1.5, duration, walk_rng));
    }
  }
  Rng churn_rng(seed ^ 0xc2b2ae3d27d4eb4full);
  churn_rng.shuffle(sessile);
  const double run_s = to_sec(duration);
  for (std::size_t i = 0; i < 30; ++i) {
    const double leave = churn_rng.uniform(0.05, 0.55) * run_s;
    const double back = leave + churn_rng.uniform(0.1, 0.4) * run_s;
    d.membership.push_back({sec(leave), sessile[i], false});
    d.membership.push_back({sec(back), sessile[i], true});
  }
  return cfg;
}

TEST(DensePolling, RejoinedClientsArePolledWithinTheBound) {
  // Regression: the APs air rosters planned many batches ahead, so a client
  // that rejoined or roamed in sat out every roster planned before its
  // join, 10 in a row against the auditor's bound of 9 on this seed.
  const std::uint64_t seed = 1001;
  const auto t = dense(4, 60, seed);
  const auto r = run_experiment(t, dense_roam_cfg(t, seed, sec(1)));
  ASSERT_NE(r.audit, nullptr);
  ASSERT_GT(r.lifecycle_joins, 0u);
  EXPECT_EQ(r.audit->violations_by_invariant.count("rop.starved-client"), 0u)
      << r.audit->summary();
}

}  // namespace
}  // namespace dmn::api
