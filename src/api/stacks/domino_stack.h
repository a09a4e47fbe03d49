#pragma once
// DOMINO: relative-schedule APs and clients, the wired controller with the
// schedule converter, per-node Gold signatures, and the ROP polling plane.

#include <map>
#include <memory>
#include <vector>

#include "api/scheme_stack.h"
#include "domino/controller.h"
#include "domino/domino_mac.h"
#include "domino/signature_plan.h"
#include "rop/params.h"
#include "wired/backbone.h"

namespace dmn::api {

inline constexpr const char* kDominoStackName = "DOMINO";

class DominoStack : public SchemeStack {
 public:
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override;
  void collect(ExperimentResult& result) const override;

  /// Roam/join with ROP admission control. Legacy mode: the client takes
  /// the smallest free subchannel at the target AP, or the handoff is
  /// rejected when the AP's (single) poll symbol is full. Multi-symbol
  /// modes: admission succeeds while the AP is under
  /// rop.client_capacity() — the controller re-plans poll rosters, so the
  /// roam-in only needs a least-loaded fallback subchannel, not an
  /// exclusive one. On success the old AP's downlink backlog and
  /// the client's uplink dedup filter move over (so a lost-ACK retransmit
  /// stays deduplicated). The controller forgets its per-link estimates in
  /// on_topology_changed, which the lifecycle driver calls in the same event.
  bool on_client_attach(topo::NodeId client, topo::NodeId to) override;
  void on_client_detach(topo::NodeId client) override;
  /// Rebuilds the conflict graph over the current link set and resets the
  /// controller's LinkId-keyed state.
  void on_topology_changed() override;

 private:
  std::unique_ptr<domino::SignaturePlan> signatures_;
  /// The controller plans over this graph (the traffic's link directions).
  topo::ConflictGraph graph_;
  std::unique_ptr<wired::Backbone> backbone_;
  std::unique_ptr<domino::DominoController> controller_;
  std::vector<std::unique_ptr<domino::DominoApMac>> aps_;
  std::vector<std::unique_ptr<domino::DominoClientMac>> clients_;

  // Lifecycle plumbing.
  const topo::Topology* topo_ = nullptr;
  bool downlink_ = false;
  bool uplink_ = false;
  rop::RopParams rop_;
  std::size_t num_subchannels_ = 0;
  std::map<topo::NodeId, domino::DominoApMac*> ap_map_;
  std::map<topo::NodeId, domino::DominoClientMac*> client_map_;
};

}  // namespace dmn::api
