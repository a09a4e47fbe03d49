#include "api/lifecycle.h"

#include <algorithm>
#include <limits>

#include "topo/trace_synth.h"

namespace dmn::api {

namespace {
constexpr double kNoPathDbm = -std::numeric_limits<double>::infinity();

TimeNs seconds_to_ns(double s) {
  // Churn draws are exponential with ~hundreds-of-ms means; clamp to one
  // nanosecond so a pathological draw can never stall the compile loop.
  const double ns = s * 1e9;
  if (ns < 1.0) return 1;
  if (ns > 9e18) return static_cast<TimeNs>(9e18);
  return static_cast<TimeNs>(ns);
}
}  // namespace

LifecycleDriver::LifecycleDriver(sim::Simulator& sim, topo::Topology& topo,
                                 const topo::DynamicsPlan& plan, Rng rng)
    : sim_(sim), topo_(topo), plan_(plan), rng_(rng) {}

topo::Position LifecycleDriver::position_at(
    const topo::MobilityTrajectory& traj, TimeNs t) const {
  const auto& w = traj.waypoints;
  if (w.empty()) return topo_.node(traj.node).pos;
  if (t <= w.front().at) return w.front().pos;
  if (t >= w.back().at) return w.back().pos;
  for (std::size_t i = 1; i < w.size(); ++i) {
    if (t > w[i].at) continue;
    const topo::Waypoint& a = w[i - 1];
    const topo::Waypoint& b = w[i];
    const double f = static_cast<double>(t - a.at) /
                     static_cast<double>(b.at - a.at);
    return topo::Position{a.pos.x + f * (b.pos.x - a.pos.x),
                          a.pos.y + f * (b.pos.y - a.pos.y)};
  }
  return w.back().pos;
}

void LifecycleDriver::refresh_rows(topo::NodeId node) {
  const topo::Position& p = topo_.node(node).pos;
  const std::size_t n = topo_.num_nodes();
  for (std::size_t j = 0; j < n; ++j) {
    const topo::NodeId other = static_cast<topo::NodeId>(j);
    if (other == node || !topo_.node_active(other)) continue;
    topo_.update_rss(node, other,
                     topo::floorplan_rss_dbm(plan_.floorplan, p,
                                             topo_.node(other).pos));
    ++counters_.rss_updates;
  }
  rss_dirty_ = true;
}

void LifecycleDriver::isolate_rows(topo::NodeId node) {
  const std::size_t n = topo_.num_nodes();
  for (std::size_t j = 0; j < n; ++j) {
    const topo::NodeId other = static_cast<topo::NodeId>(j);
    if (other == node) continue;
    topo_.update_rss(node, other, kNoPathDbm);
  }
  rss_dirty_ = true;
}

topo::NodeId LifecycleDriver::best_ap(topo::NodeId node) const {
  topo::NodeId best = topo::kNoNode;
  double best_rss = -std::numeric_limits<double>::infinity();
  for (topo::NodeId ap : topo_.aps()) {
    const double r = topo_.rss(ap, node);
    if (r >= topo_.thresholds().assoc_rss_dbm && r > best_rss) {
      best_rss = r;
      best = ap;
    }
  }
  return best;
}

void LifecycleDriver::prepare(TimeNs duration) {
  duration_ = duration;

  // The dynamic-node universe: mobile, scripted, and churn-eligible
  // clients. Sorted + deduped so every later iteration over it is
  // deterministic.
  for (const topo::MobilityTrajectory& t : plan_.trajectories) {
    dynamic_nodes_.push_back(t.node);
  }
  for (const topo::MembershipEvent& e : plan_.membership) {
    dynamic_nodes_.push_back(e.node);
  }
  std::vector<topo::NodeId> churn_eligible;
  if (plan_.churn_rate_hz > 0.0) {
    churn_eligible =
        plan_.churn_nodes.empty() ? topo_.all_clients() : plan_.churn_nodes;
    std::sort(churn_eligible.begin(), churn_eligible.end());
    dynamic_nodes_.insert(dynamic_nodes_.end(), churn_eligible.begin(),
                          churn_eligible.end());
  }
  if (plan_.roam.enabled && dynamic_nodes_.empty()) {
    // Roam-only plans: every client re-evaluates its association.
    dynamic_nodes_ = topo_.all_clients();
  }
  std::sort(dynamic_nodes_.begin(), dynamic_nodes_.end());
  dynamic_nodes_.erase(
      std::unique(dynamic_nodes_.begin(), dynamic_nodes_.end()),
      dynamic_nodes_.end());

  // Snap trajectory nodes to their t=0 positions, then re-derive every pair
  // involving a dynamic node from the floor-plan model so the incremental
  // updates and ground truth start in agreement. (Static-static pairs keep
  // their original — possibly shadowed — trace values.)
  for (const topo::MobilityTrajectory& t : plan_.trajectories) {
    topo_.set_position(t.node, position_at(t, 0));
  }
  const LifecycleCounters saved = counters_;
  for (topo::NodeId d : dynamic_nodes_) refresh_rows(d);
  counters_ = saved;  // prepare-time refreshes are not runtime updates
  rss_dirty_ = false;

  // Compile seeded churn into concrete leave/join pairs. One forked stream
  // per eligible client, consumed in sorted-id order, so adding a client to
  // the plan never perturbs another client's timeline.
  for (const topo::MembershipEvent& e : plan_.membership) {
    events_.push_back(CompiledEvent{e.at, e.node, e.join});
  }
  if (plan_.churn_rate_hz > 0.0) {
    const double up_mean_s = 1.0 / plan_.churn_rate_hz;
    const double down_mean_s =
        static_cast<double>(plan_.churn_downtime) * 1e-9;
    for (topo::NodeId c : churn_eligible) {
      Rng stream = rng_.fork();
      TimeNs t = seconds_to_ns(stream.exponential(up_mean_s));
      while (t < duration_) {
        events_.push_back(CompiledEvent{t, c, /*join=*/false});
        t += seconds_to_ns(stream.exponential(down_mean_s));
        if (t >= duration_) break;
        events_.push_back(CompiledEvent{t, c, /*join=*/true});
        t += seconds_to_ns(stream.exponential(up_mean_s));
      }
    }
  }
  std::sort(events_.begin(), events_.end(),
            [](const CompiledEvent& a, const CompiledEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              return a.join < b.join;
            });

  // Clients whose first event is a join start the run absent: inactive and
  // radio-silent, so make_links / a stack's conflict graph / the medium
  // never see them until the join fires.
  std::vector<char> seen(topo_.num_nodes(), 0);
  for (const CompiledEvent& e : events_) {
    if (seen[static_cast<std::size_t>(e.node)]) continue;
    seen[static_cast<std::size_t>(e.node)] = 1;
    if (e.join) initially_absent_.push_back(e.node);
  }
  for (topo::NodeId c : initially_absent_) {
    topo_.set_node_active(c, false);
    isolate_rows(c);
  }
  rss_dirty_ = false;  // nothing built yet; the medium reads fresh rows
}

void LifecycleDriver::arm(Hooks hooks) {
  hooks_ = std::move(hooks);

  // Initially-absent clients were built into the stack (every node gets a
  // MAC); detach them so no AP polls or queues for a client that has not
  // joined yet.
  for (topo::NodeId c : initially_absent_) {
    if (hooks_.detach) hooks_.detach(c);
    if (hooks_.lifecycle_note) hooks_.lifecycle_note(c, false, 0);
  }
  if (!initially_absent_.empty() && hooks_.topology_changed) {
    topology_dirty_ = true;
    flush();
  }

  for (const CompiledEvent& e : events_) {
    if (e.at >= duration_) continue;
    sim_.post_at(e.at, [this, e] {
      if (e.join) {
        handle_join(e.node, e.at);
      } else {
        handle_leave(e.node, e.at);
      }
    });
  }
  if (!plan_.trajectories.empty() || plan_.roam.enabled) {
    schedule_epoch(plan_.epoch);
  }
}

void LifecycleDriver::schedule_epoch(TimeNs at) {
  if (at >= duration_) return;
  sim_.post_at(at, [this, at] {
    epoch_tick(at);
    schedule_epoch(at + plan_.epoch);
  });
}

void LifecycleDriver::epoch_tick(TimeNs now) {
  ++counters_.epochs;

  // Mobility: advance every trajectory and refresh its radio rows. Nodes
  // holding an endpoint (or absent) cost nothing.
  for (const topo::MobilityTrajectory& t : plan_.trajectories) {
    const topo::Position p = position_at(t, now);
    const topo::Position& cur = topo_.node(t.node).pos;
    if (p.x == cur.x && p.y == cur.y) continue;
    topo_.set_position(t.node, p);
    if (topo_.node_active(t.node)) {
      refresh_rows(t.node);
      topology_dirty_ = true;  // conflict edges track the moving RSS
    }
  }

  // Roaming: strongest admissible AP, hysteresis + dwell gated, admission
  // controlled by the stack (try_attach may reject).
  if (plan_.roam.enabled) {
    for (topo::NodeId c : dynamic_nodes_) {
      if (!topo_.node_active(c)) continue;
      const topo::NodeId cur = topo_.node(c).ap;
      const topo::NodeId target = best_ap(c);
      if (target == topo::kNoNode || target == cur) continue;
      if (topo_.rss(target, c) - topo_.rss(cur, c) <
          plan_.roam.hysteresis_db) {
        continue;
      }
      if (now - last_roam_[c] < plan_.roam.min_dwell) continue;
      if (test_stale_roam_) {
        // Mutant: the association moves but the stack is never told and the
        // scheduling plane keeps its stale graph — the auditor's
        // converter.stale-association check must catch the next batch.
        topo_.set_association(c, target);
        ++counters_.roams;
        last_roam_[c] = now;
        continue;
      }
      if (hooks_.try_attach && hooks_.try_attach(c, target)) {
        topo_.set_association(c, target);
        if (hooks_.reassociated) hooks_.reassociated(c);
        ++counters_.roams;
        last_roam_[c] = now;
        topology_dirty_ = true;
      } else {
        ++counters_.roam_rejections;
      }
    }
  }

  flush();
}

void LifecycleDriver::handle_leave(topo::NodeId node, TimeNs now) {
  if (!topo_.node_active(node)) return;  // scripted/churn collision
  ++counters_.leaves;
  if (test_ghost_radio_) {
    // Mutant: the lifecycle ledger records the departure but the driver
    // "forgets" the radio — no detach, no isolation, no deactivation. The
    // departed client keeps decoding and ACKing; the auditor's
    // lifecycle.delivery-to-departed check must catch it.
    if (hooks_.lifecycle_note) hooks_.lifecycle_note(node, false, now);
    return;
  }
  if (hooks_.detach) hooks_.detach(node);
  topo_.set_node_active(node, false);
  isolate_rows(node);
  if (hooks_.lifecycle_note) hooks_.lifecycle_note(node, false, now);
  topology_dirty_ = true;
  flush();
}

void LifecycleDriver::handle_join(topo::NodeId node, TimeNs now) {
  if (topo_.node_active(node)) return;
  topo_.set_node_active(node, true);
  refresh_rows(node);
  const topo::NodeId target = best_ap(node);
  const bool attached =
      target != topo::kNoNode &&
      (!hooks_.try_attach || hooks_.try_attach(node, target));
  if (!attached) {
    // No admissible AP: out of range, the (single, legacy) poll symbol is
    // full, or in the multi-symbol modes every poll symbol is full — the
    // AP hit rop.client_capacity(). Stay absent and retry one epoch later.
    // Re-isolating restores the exact pre-join rows, so the medium never
    // needs a refresh for this no-op.
    ++counters_.join_rejections;
    topo_.set_node_active(node, false);
    isolate_rows(node);
    rss_dirty_ = false;
    const TimeNs retry = now + plan_.epoch;
    if (retry < duration_) {
      sim_.post_at(retry, [this, node, retry] { handle_join(node, retry); });
    }
    return;
  }
  topo_.set_association(node, target);
  if (hooks_.reassociated) hooks_.reassociated(node);
  if (hooks_.lifecycle_note) hooks_.lifecycle_note(node, true, now);
  ++counters_.joins;
  last_roam_[node] = now;
  topology_dirty_ = true;
  flush();
}

void LifecycleDriver::flush() {
  if (rss_dirty_ && hooks_.refresh_medium) hooks_.refresh_medium();
  rss_dirty_ = false;
  if (topology_dirty_) {
    if (test_stale_roam_) {
      // Mutant keeps the stale scheduling plane (see epoch_tick); the
      // medium refresh above still happens — the defect under test is the
      // control plane, not the PHY.
      topology_dirty_ = false;
      return;
    }
    if (hooks_.topology_changed) hooks_.topology_changed();
    topology_dirty_ = false;
  }
}

}  // namespace dmn::api
