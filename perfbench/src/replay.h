#pragma once
// Layer replays: the benchmark calls one layer's public functions directly
// on the workload's own inputs, to time that layer apart from the event
// loop and to feed the oracles planned artefacts (schedules, poll rounds)
// the event loop keeps to itself.

#include <cstddef>
#include <cstdint>

#include "api/experiment.h"
#include "oracles.h"
#include "topo/topology.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayContext {
  const Workload& w;
  const dmn::api::ExperimentConfig& cfg;
  Tracer& tracer;
  Checks& checks;
};

/// The topology the DOMINO, ROP and lifecycle replays run on: the whole
/// network when it fits SignaturePlan's 1,023-node cap, else the leading
/// buildings that do (the static generators lay nodes out building by
/// building).
dmn::topo::Topology replay_topology(const Workload& w,
                                    const dmn::topo::Topology& full);

/// ConflictGraph::build, classify_pairs and compute_partitions on the full
/// topology (spans topo.conflict_build, topo.census, topo.partition).
/// Returns the conflict graph's edge count.
std::uint64_t replay_setup(ReplayContext& ctx, const dmn::topo::Topology& t);

/// RAND scheduling, conversion with every AP polled and per-AP plan
/// splitting for a run of batches (span domino.plan_batch with children
/// domino.schedule, domino.convert, domino.ap_plans); every batch goes
/// through check_batch.
void replay_domino(ReplayContext& ctx, const dmn::topo::Topology& t);

/// PollPlanner::plan per AP round (span rop.plan); static plans and
/// adaptive rounds go through their oracles.
void replay_rop(ReplayContext& ctx, const dmn::topo::Topology& t);

/// Concurrent data frames from every AP of one interference partition
/// through Medium::transmit and their end-of-frame processing (one
/// phy.transmit span per round). Returns the transmissions made.
std::size_t replay_phy_tx(ReplayContext& ctx, const dmn::topo::Topology& t);

/// Medium::on_topology_changed with every AP on the air (span
/// phy.topology_refresh).
void replay_topology_refresh(ReplayContext& ctx, const dmn::topo::Topology& t);

/// A client leaves and rejoins; each membership change rebuilds the
/// conflict graph (span topo.graph_rebuild).
void replay_membership(ReplayContext& ctx, const dmn::topo::Topology& t);

}  // namespace perfbench
