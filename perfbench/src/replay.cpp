#include "replay.h"

#include <set>
#include <vector>

#include "domino/rand_scheduler.h"
#include "domino/signature_plan.h"
#include "phy/medium.h"
#include "sim/simulator.h"
#include "topo/conflict_graph.h"
#include "topo/partition.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace dmn;

constexpr std::size_t kSignatureCap = 1023;
constexpr std::size_t kReplayBatches = 10;
constexpr std::size_t kPollRounds = 20;
constexpr std::size_t kPhyRounds = 200;
constexpr std::size_t kRefreshes = 20;
constexpr std::size_t kMembershipClients = 2;

/// Replay randomness is drawn from the workload seed, apart from the
/// streams that built the topology and drive the experiment.
Rng replay_rng(const Workload& w, std::uint64_t stream) {
  return Rng(w.seed * 0x100000001b3ull + stream);
}

/// Counts frame-end callbacks so the medium has listeners to deliver to.
class CountingClient final : public phy::MediumClient {
 public:
  void on_frame_rx(const phy::Frame&, const phy::RxInfo& info) override {
    decoded_ += info.decoded ? 1 : 0;
  }
  std::uint64_t decoded() const { return decoded_; }

 private:
  std::uint64_t decoded_ = 0;
};

/// Whether the run gives each interference partition its own medium: the
/// program's rule is threads >= 1 and a static topology.
bool partitioned(const ReplayContext& ctx) {
  return ctx.cfg.sim_threads > 0 && !ctx.cfg.dynamics.any();
}

/// Nodes the PHY replays transmit among: one interference partition when
/// the run is partitioned (as its mediums are), else all.
std::vector<topo::NodeId> phy_members(const ReplayContext& ctx,
                                      const topo::Topology& t) {
  if (partitioned(ctx)) return topo::compute_partitions(t).members_of(0);
  std::vector<topo::NodeId> all(t.num_nodes());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<topo::NodeId>(i);
  }
  return all;
}

/// One data frame per member AP, to its first client.
std::vector<phy::Frame> ap_frames(const ReplayContext& ctx,
                                  const topo::Topology& t,
                                  const std::vector<topo::NodeId>& members) {
  const std::set<topo::NodeId> in(members.begin(), members.end());
  std::vector<phy::Frame> frames;
  for (const topo::NodeId ap : t.aps()) {
    const auto clients = t.clients_of(ap);
    if (!in.count(ap) || clients.empty()) continue;
    phy::Frame f;
    f.type = phy::FrameType::kData;
    f.src = ap;
    f.dst = clients.front();
    f.bytes = ctx.cfg.traffic.packet_bytes + ctx.cfg.wifi.mac_header_bytes;
    f.duration = ctx.cfg.wifi.data_airtime(ctx.cfg.traffic.packet_bytes);
    frames.push_back(f);
  }
  return frames;
}

}  // namespace

topo::Topology replay_topology(const Workload& w, const topo::Topology& full) {
  if (full.num_nodes() <= kSignatureCap) return full;
  const std::size_t per_building = full.num_nodes() / w.shape.buildings;
  const std::size_t n = (kSignatureCap / per_building) * per_building;
  std::vector<topo::Node> nodes(full.nodes().begin(),
                                full.nodes().begin() + static_cast<long>(n));
  topo::RssMap rss(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto a = static_cast<topo::NodeId>(i);
      const auto b = static_cast<topo::NodeId>(j);
      rss.set_rss(a, b, full.rss(a, b));
    }
  }
  return topo::Topology(std::move(nodes), std::move(rss), full.thresholds());
}

std::uint64_t replay_setup(ReplayContext& ctx, const topo::Topology& t) {
  const auto links = t.make_links(true, true);
  std::uint64_t edges = 0;
  {
    auto span = ctx.tracer.span("topo.conflict_build");
    const auto g = topo::ConflictGraph::build(t, links);
    for (std::size_t i = 0; i < g.num_links(); ++i) {
      edges += g.neighbors(static_cast<topo::LinkId>(i)).size();
    }
  }
  {
    auto span = ctx.tracer.span("topo.census");
    (void)topo::classify_pairs(t, links);
  }
  {
    auto span = ctx.tracer.span("topo.partition");
    (void)topo::compute_partitions(t);
  }
  return edges / 2;
}

void replay_domino(ReplayContext& ctx, const topo::Topology& t) {
  const auto links = t.make_links(true, true);
  const auto graph = topo::ConflictGraph::build(t, links);
  const domino::SignaturePlan signatures(t.num_nodes());
  domino::ScheduleConverter converter(t, graph, signatures, ctx.cfg.converter);
  domino::RandScheduler rand(graph);
  const rop::PollPlanner planner(ctx.cfg.rop);
  const std::vector<topo::NodeId> aps = t.aps();
  std::vector<std::uint32_t> rop_symbols;
  if (ctx.cfg.rop.poll_mode != rop::PollMode::kLegacy) {
    for (const topo::NodeId ap : aps) {
      rop_symbols.push_back(static_cast<std::uint32_t>(
          planner.symbol_budget(t.clients_of(ap).size())));
    }
  }

  Rng rng = replay_rng(ctx.w, 1);
  std::vector<domino::SlotEntry> prev_last;
  std::uint64_t next_slot = 0;
  const std::size_t slots = ctx.cfg.domino.batch_slots;
  for (std::size_t b = 1; b <= kReplayBatches; ++b) {
    std::vector<std::size_t> demand(links.size());
    for (auto& d : demand) d = static_cast<std::size_t>(rng.uniform_int(0, 3));

    BatchInput in;
    in.topo = &t;
    in.links = &links;
    in.params = ctx.cfg.converter;
    in.polled = aps;
    {
      auto batch_span = ctx.tracer.span("domino.plan_batch");
      {
        auto span = ctx.tracer.span("domino.schedule");
        in.strict = rand.schedule_batch(demand, slots);
        while (in.strict.size() < slots) in.strict.emplace_back();
      }
      {
        auto span = ctx.tracer.span("domino.convert");
        in.schedule = converter.convert(in.strict, prev_last, aps, b,
                                        next_slot, rop_symbols);
      }
      auto span = ctx.tracer.span("domino.ap_plans");
      const auto plans = converter.make_ap_plans(in.schedule);
      ctx.checks.expect(!plans.empty(), "domino.ap-plans",
                        "make_ap_plans returned no plan for batch " +
                            std::to_string(b));
    }
    check_batch(ctx.checks, in);
    prev_last = in.schedule.slots.back().entries;
    next_slot += in.schedule.slots.size() - 1;
  }
}

void replay_rop(ReplayContext& ctx, const topo::Topology& t) {
  const rop::RopParams& params = ctx.cfg.rop;
  const rop::PollPlanner planner(params);
  Rng rng = replay_rng(ctx.w, 2);
  for (const topo::NodeId ap : t.aps()) {
    std::vector<rop::PollClient> clients;
    for (const topo::NodeId c : t.clients_of(ap)) {
      clients.push_back({c, t.rss(c, ap), 0, 0});
    }
    const rop::PollRound full = planner.plan_static(clients);
    check_static_plan(ctx.checks, full, clients, params.num_subchannels);
    for (std::size_t r = 0; r < kPollRounds; ++r) {
      for (rop::PollClient& pc : clients) {
        pc.backlog = rng.chance(0.3)
                         ? static_cast<std::size_t>(rng.uniform_int(1, 5))
                         : 0;
      }
      rop::PollRound round;
      {
        auto span = ctx.tracer.span("rop.plan");
        round = planner.plan(clients, r);
      }
      if (params.poll_mode == rop::PollMode::kAdaptive) {
        check_adaptive_plan(ctx.checks, round, full.symbols,
                            params.max_poll_symbols);
      } else {
        check_static_plan(ctx.checks, round, clients, params.num_subchannels);
      }
      std::set<topo::NodeId> rostered;
      for (const rop::PollSlot& s : round.slots) rostered.insert(s.client);
      for (rop::PollClient& pc : clients) {
        pc.rounds_since_polled =
            rostered.count(pc.client) ? 0 : pc.rounds_since_polled + 1;
      }
    }
  }
}

std::size_t replay_phy_tx(ReplayContext& ctx, const topo::Topology& t) {
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  const std::vector<topo::NodeId> members = phy_members(ctx, t);
  if (partitioned(ctx)) medium.restrict_to_nodes(members);
  CountingClient listener;
  for (const topo::NodeId n : members) medium.attach(n, &listener);
  const std::vector<phy::Frame> frames = ap_frames(ctx, t, members);
  if (frames.empty()) {
    ctx.checks.expect(false, "phy.replay-delivery", "no AP to transmit from");
    return 0;
  }
  const TimeNs pitch = frames.front().duration + usec(50);
  for (std::size_t r = 0; r < kPhyRounds; ++r) {
    auto span = ctx.tracer.span("phy.transmit");
    for (const phy::Frame& f : frames) medium.transmit(f);
    sim.run_until(static_cast<TimeNs>(r + 1) * pitch);
  }
  ctx.checks.expect(listener.decoded() > 0, "phy.replay-delivery",
                    "no frame decoded in the transmit replay");
  return kPhyRounds * frames.size();
}

void replay_topology_refresh(ReplayContext& ctx, const topo::Topology& t) {
  sim::Simulator sim;
  phy::Medium medium(sim, t);
  CountingClient listener;
  for (std::size_t n = 0; n < t.num_nodes(); ++n) {
    medium.attach(static_cast<topo::NodeId>(n), &listener);
  }
  std::vector<topo::NodeId> all(t.num_nodes());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<topo::NodeId>(i);
  }
  for (const phy::Frame& f : ap_frames(ctx, t, all)) medium.transmit(f);
  for (std::size_t r = 0; r < kRefreshes; ++r) {
    auto span = ctx.tracer.span("phy.topology_refresh");
    medium.on_topology_changed();
  }
  sim.run();
}

void replay_membership(ReplayContext& ctx, const topo::Topology& t) {
  topo::Topology live = t;
  std::vector<topo::NodeId> movers;
  for (const topo::NodeId ap : t.aps()) {
    if (movers.size() == kMembershipClients) break;
    const auto clients = t.clients_of(ap);
    if (!clients.empty()) movers.push_back(clients.back());
  }
  for (const topo::NodeId c : movers) {
    for (const bool active : {false, true}) {
      live.set_node_active(c, active);
      auto span = ctx.tracer.span("topo.graph_rebuild");
      (void)topo::ConflictGraph::build(live, live.make_links(true, true));
    }
  }
}

}  // namespace perfbench
