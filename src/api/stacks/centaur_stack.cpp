#include "api/stacks/centaur_stack.h"

#include <map>

#include "api/experiment.h"
#include "api/metrics.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace dmn::api {

void CentaurStack::build(StackContext& ctx,
                         std::vector<mac::MacEntity*>& macs) {
  topo_ = &ctx.topo;
  dcf_.build(ctx, macs);
  const auto dl = ctx.topo.make_links(/*downlink=*/true, /*uplink=*/false);
  downlink_graph_ = std::make_unique<topo::ConflictGraph>(
      topo::ConflictGraph::build(ctx.topo, dl));
  backbone_ = std::make_unique<wired::Backbone>(ctx.sim, ctx.cfg.backbone,
                                                ctx.rng.fork());
  if (ctx.faults != nullptr) {
    backbone_->set_fault_hook(
        [f = ctx.faults] { return f->backbone_delivery(); });
  }
  std::map<topo::NodeId, mac::DcfNode*> ap_macs;
  for (const auto& n : dcf_.nodes()) {
    if (ctx.topo.node(n->node()).is_ap) ap_macs[n->node()] = n.get();
  }
  controller_ = std::make_unique<centaur::CentaurController>(
      ctx.sim, *backbone_, *downlink_graph_, ctx.cfg.centaur,
      std::move(ap_macs));
  controller_->set_graph_refresh([this] {
    const auto dl_now =
        topo_->make_links(/*downlink=*/true, /*uplink=*/false);
    *downlink_graph_ = topo::ConflictGraph::build(*topo_, dl_now);
  });
  // Controller logic (batch planning, epoch barrier) lives on the wired
  // queue; releases and completion reports route through the backbone.
  sim::Simulator::Scope scope(ctx.sim, ctx.sim.wired_queue_index());
  controller_->start(usec(100));
}

bool CentaurStack::on_client_attach(topo::NodeId client, topo::NodeId to) {
  return dcf_.on_client_attach(client, to);
}

void CentaurStack::on_client_detach(topo::NodeId client) {
  dcf_.on_client_detach(client);
}

void CentaurStack::on_topology_changed() {
  controller_->request_graph_refresh();
}

void CentaurStack::collect(ExperimentResult& result) const {
  dcf_.collect(result);
}

}  // namespace dmn::api
