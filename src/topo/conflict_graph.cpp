#include "topo/conflict_graph.h"

#include <algorithm>

namespace dmn::topo {
namespace {

/// Pairwise scheduling margin (dB): conflict graphs are pairwise but slots
/// hold many concurrent links whose interference adds up; requiring each
/// pair to clear the threshold with margin keeps the summed case feasible.
constexpr double kGraphMarginDb = 3.0;

/// SINR (dB) at `receiver` for a signal from `sender` with one interferer.
double sinr_with_interferer(const Topology& topo, NodeId sender,
                            NodeId receiver, NodeId interferer) {
  const double sig_mw = dbm_to_mw(topo.rss(sender, receiver));
  const double noise_mw = dbm_to_mw(topo.thresholds().noise_floor_dbm);
  const double intf_mw = dbm_to_mw(topo.rss(interferer, receiver));
  return ratio_to_db(sig_mw / (noise_mw + intf_mw));
}

bool share_node(const Link& a, const Link& b) {
  return a.sender == b.sender || a.sender == b.receiver ||
         a.receiver == b.sender || a.receiver == b.receiver;
}

/// Data-direction-only conflict: either receiver's data SINR breaks under
/// interference from any endpoint of the other link (both endpoints of a
/// link transmit something during a slot: data/fake one way, ACK back).
bool links_conflict_data(const Topology& topo, const Link& a,
                         const Link& b) {
  if (share_node(a, b)) return true;
  const double th = topo.thresholds().sinr_data_db + kGraphMarginDb;
  return sinr_with_interferer(topo, a.sender, a.receiver, b.sender) < th ||
         sinr_with_interferer(topo, a.sender, a.receiver, b.receiver) < th ||
         sinr_with_interferer(topo, b.sender, b.receiver, a.sender) < th ||
         sinr_with_interferer(topo, b.sender, b.receiver, a.receiver) < th;
}

/// True if a and b cannot successfully transmit concurrently. Checks both
/// the data direction (sender -> receiver at the data threshold) and the
/// link-layer ACK direction (receiver -> sender at the control threshold):
/// an exposed data pair whose ACKs collide is not schedulable together.
bool links_conflict(const Topology& topo, const Link& a, const Link& b) {
  if (share_node(a, b)) return true;
  // Strict rule = the data-only rule plus ACK protection, so the full rule
  // is a superset of the relaxed one by construction.
  if (links_conflict_data(topo, a, b)) return true;
  const double ctrl_th =
      topo.thresholds().sinr_control_db + kGraphMarginDb;
  // ACK phase: scheduled transmissions share a fixed slot structure, so
  // data phases align with data phases and ACK phases with ACK phases —
  // the cross (ack-under-data) case never occurs in time. What must hold
  // is each ACK decoding under the OTHER link's concurrent ACK.
  if (sinr_with_interferer(topo, a.receiver, a.sender, b.receiver) <
      ctrl_th) {
    return true;
  }
  if (sinr_with_interferer(topo, b.receiver, b.sender, a.receiver) <
      ctrl_th) {
    return true;
  }
  return false;
}

}  // namespace

ConflictGraph ConflictGraph::build(const Topology& topo,
                                   std::span<const Link> links) {
  ConflictGraph g;
  g.links_.assign(links.begin(), links.end());
  const std::size_t n = g.links_.size();
  g.conflict_.assign(n, std::vector<bool>(n, false));
  g.data_conflict_.assign(n, std::vector<bool>(n, false));
  g.adj_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (links_conflict(topo, g.links_[i], g.links_[j])) {
        g.conflict_[i][j] = g.conflict_[j][i] = true;
        g.adj_[i].push_back(static_cast<LinkId>(j));
        g.adj_[j].push_back(static_cast<LinkId>(i));
      }
      if (links_conflict_data(topo, g.links_[i], g.links_[j])) {
        g.data_conflict_[i][j] = g.data_conflict_[j][i] = true;
      }
    }
  }
  return g;
}

bool ConflictGraph::conflicts(LinkId a, LinkId b) const {
  if (a == b) return true;
  return conflict_.at(static_cast<std::size_t>(a))
      .at(static_cast<std::size_t>(b));
}

bool ConflictGraph::data_conflicts(LinkId a, LinkId b) const {
  if (a == b) return true;
  return data_conflict_.at(static_cast<std::size_t>(a))
      .at(static_cast<std::size_t>(b));
}

bool ConflictGraph::is_independent(std::span<const LinkId> set) const {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (conflicts(set[i], set[j])) return false;
    }
  }
  return true;
}

void ConflictGraph::extend_to_maximal(std::vector<LinkId>& set,
                                      std::span<const LinkId> candidates)
    const {
  for (LinkId c : candidates) {
    if (std::find(set.begin(), set.end(), c) != set.end()) continue;
    bool ok = true;
    for (LinkId s : set) {
      if (data_conflicts(c, s)) {
        ok = false;
        break;
      }
    }
    if (ok) set.push_back(c);
  }
}

LinkId ConflictGraph::find(const Link& l) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i] == l) return static_cast<LinkId>(i);
  }
  return kNoLink;
}

PairCensus classify_pairs(const Topology& topo, std::span<const Link> links) {
  PairCensus census;
  const double th = topo.thresholds().sinr_data_db;
  const double noise_mw = dbm_to_mw(topo.thresholds().noise_floor_dbm);
  auto sinr = [&](const Link& l, NodeId interferer) {
    const double sig = dbm_to_mw(topo.rss(l.sender, l.receiver));
    const double intf = dbm_to_mw(topo.rss(interferer, l.receiver));
    return ratio_to_db(sig / (noise_mw + intf));
  };
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      const Link& a = links[i];
      const Link& b = links[j];
      if (a.sender == b.sender || a.sender == b.receiver ||
          a.receiver == b.sender || a.receiver == b.receiver) {
        continue;  // node-sharing pairs are neither hidden nor exposed
      }
      ++census.total;
      const bool sense = topo.can_sense(a.sender, b.sender);
      const bool both_ok = sinr(a, b.sender) >= th && sinr(b, a.sender) >= th;
      if (!sense && !both_ok) ++census.hidden;
      if (sense && both_ok) ++census.exposed;
    }
  }
  return census;
}

}  // namespace dmn::topo
