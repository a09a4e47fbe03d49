#pragma once
// Correctness oracles. Each derives its verdict from the workload's inputs
// and first principles (airtime, offered load, what the generator built),
// not from the program's own bookkeeping, so a program bug cannot make its
// own check pass. Every failure names the property and its numbers.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/metrics.h"
#include "audit/audit.h"
#include "domino/converter.h"
#include "domino/relative_schedule.h"
#include "rop/poll_planner.h"
#include "topo/topology.h"

namespace perfbench {

class Checks {
 public:
  /// Records one evaluated property; a false `ok` is a failure.
  void expect(bool ok, const std::string& property, const std::string& detail);

  std::size_t evaluated() const { return evaluated_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool passed() const { return failures_.empty(); }
  /// Evaluations and failures per property name.
  const std::map<std::string, std::pair<std::size_t, std::size_t>>&
  by_property() const {
    return by_property_;
  }

 private:
  std::size_t evaluated_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_property_;
};

/// One flow's offered and delivered load, with the AP it runs through.
struct FlowOutcome {
  dmn::topo::NodeId ap = dmn::topo::kNoNode;
  double offered_bps = 0.0;
  std::uint64_t delivered_packets = 0;
};

struct TrafficModel {
  double duration_s = 0.0;
  std::size_t payload_bytes = 0;
  std::size_t mac_header_bytes = 0;
  double data_rate_bps = 0.0;
  std::size_t aps = 0;
  /// Clients may change AP during the run: only the network total is
  /// bounded (by APs x the per-cell cap).
  bool roaming = false;
};

/// Largest goodput one AP cell can carry: the AP is half-duplex and an
/// endpoint of every frame, so its cell delivers at most
/// data_rate x payload / (payload + MAC header).
double cell_goodput_cap_bps(const TrafficModel& m);

/// Per-cell (or, under roaming, network) goodput cap, and per-flow
/// conservation: a flow delivers at most offered rate x duration plus one
/// packet.
void check_traffic(Checks& c, const TrafficModel& m,
                   const std::vector<FlowOutcome>& flows);

/// compute_partitions must find one partition per generated building.
void check_partitions(Checks& c, std::size_t buildings, std::uint32_t found);

/// A static poll plan for `clients`: exactly ceil(N/subchannels) symbols,
/// every client exactly once, distinct (symbol, subchannel) pairs.
void check_static_plan(Checks& c, const dmn::rop::PollRound& round,
                       const std::vector<dmn::rop::PollClient>& clients,
                       std::size_t subchannels);

/// An adaptive round: no more symbols than the static plan for the same
/// population nor than the max_poll_symbols budget, no client twice,
/// distinct (symbol, subchannel) pairs.
void check_adaptive_plan(Checks& c, const dmn::rop::PollRound& round,
                         std::size_t static_symbols,
                         std::size_t max_poll_symbols);

/// A planned DOMINO batch. Conflicts are judged from the RSS table with the
/// physical SINR rule (data and ACK must both decode), independently of the
/// program's conflict graph.
struct BatchInput {
  const dmn::topo::Topology* topo = nullptr;
  /// LinkId -> endpoints, in the order the schedule indexes them.
  const std::vector<dmn::topo::Link>* links = nullptr;
  dmn::domino::ConverterParams params;
  std::vector<std::vector<dmn::topo::LinkId>> strict;
  dmn::domino::RelativeSchedule schedule;
  std::vector<dmn::topo::NodeId> polled;
};
void check_batch(Checks& c, const BatchInput& in);

struct LifecycleCounts {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t roams = 0;
  std::uint64_t rss_updates = 0;
  std::size_t churn_eligible = 0;
};
/// joins <= leaves <= joins + churn-eligible clients; roams and RSS updates
/// both above 0.
void check_lifecycle(Checks& c, const LifecycleCounts& l);

/// A run's poll totals: every round spans at least one symbol and at most
/// `max_symbols_per_round`.
void check_poll_totals(Checks& c, std::uint64_t rounds, std::uint64_t symbols,
                       std::size_t max_symbols_per_round);

/// An audited run must be violation-free. Violations of an invariant listed
/// in `known` are left to the caller to report and do not fail the check.
void check_audit(Checks& c, const dmn::audit::AuditReport& report,
                 const std::vector<std::string>& known);

/// Two serialized results must be byte-identical.
void check_identical(Checks& c, const std::string& property,
                     const std::string& a, const std::string& b);

/// Feeds every oracle above a deliberately corrupted input and records, in
/// `c`, a failure for each oracle that did not fire (or that fired on the
/// matching valid input).
void self_test(Checks& c);

}  // namespace perfbench
