#pragma once
// Omniscient TDMA upper bound: a central scheduler with perfect knowledge
// drives one slave MAC per node over the full conflict graph.

#include <memory>
#include <vector>

#include "api/scheme_stack.h"
#include "omni/omniscient.h"

namespace dmn::api {

inline constexpr const char* kOmniscientStackName = "Omniscient";

class OmniscientStack : public SchemeStack {
 public:
  void build(StackContext& ctx, std::vector<mac::MacEntity*>& macs) override;
  void collect(ExperimentResult& result) const override;

  /// The oracle scheduler drives every node synchronously from one global
  /// TDMA clock — inherently cross-partition — so it always runs on the
  /// single-queue kernel.
  bool supports_partitioning() const override { return false; }

  /// The oracle precomputes its TDMA frame from the initial conflict graph
  /// and has no re-registration path; dynamic topologies are rejected up
  /// front rather than silently mis-scheduled.
  bool supports_dynamics() const override { return false; }

 private:
  std::vector<std::unique_ptr<omni::OmniNodeMac>> nodes_;
  topo::ConflictGraph graph_;
  std::unique_ptr<omni::OmniscientScheduler> scheduler_;
};

}  // namespace dmn::api
