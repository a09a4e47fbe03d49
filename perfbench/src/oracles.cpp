#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "domino/rand_scheduler.h"
#include "domino/signature_plan.h"
#include "topo/conflict_graph.h"

namespace perfbench {
namespace {

using namespace dmn;

constexpr std::size_t kMaxStoredFailures = 50;

template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

double mw(double dbm) { return std::pow(10.0, dbm / 10.0); }

/// SINR (dB) of `sender` at `receiver` with `interferer` on the air.
double sinr_db(const topo::Topology& t, topo::NodeId sender,
               topo::NodeId receiver, topo::NodeId interferer) {
  const double noise = mw(t.thresholds().noise_floor_dbm);
  return 10.0 * std::log10(mw(t.rss(sender, receiver)) /
                           (noise + mw(t.rss(interferer, receiver))));
}

/// Why two links cannot share a slot, or "" when they can: a shared node
/// (one radio each), the data frame failing under the other link's data, or
/// the ACK failing under the other link's ACK.
std::string conflict_reason(const topo::Topology& t, const topo::Link& a,
                            const topo::Link& b) {
  if (a.sender == b.sender || a.sender == b.receiver ||
      a.receiver == b.sender || a.receiver == b.receiver) {
    return "share a node";
  }
  const auto& th = t.thresholds();
  for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    const double data = sinr_db(t, x.sender, x.receiver, y.sender);
    if (data < th.sinr_data_db) {
      return cat("data SINR ", data, " dB at node ", x.receiver, " < ",
                 th.sinr_data_db, " dB");
    }
    const double ack = sinr_db(t, x.receiver, x.sender, y.receiver);
    if (ack < th.sinr_control_db) {
      return cat("ACK SINR ", ack, " dB at node ", x.sender, " < ",
                 th.sinr_control_db, " dB");
    }
  }
  return "";
}

void check_round_layout(Checks& c, const rop::PollRound& round,
                        const char* property) {
  std::set<topo::NodeId> seen;
  std::set<std::pair<std::size_t, std::size_t>> cells;
  for (const rop::PollSlot& s : round.slots) {
    c.expect(seen.insert(s.client).second, property,
             cat("client ", s.client, " polled twice in one round"));
    c.expect(cells.insert({s.symbol, s.subchannel}).second, property,
             cat("(symbol ", s.symbol, ", subchannel ", s.subchannel,
                 ") assigned twice"));
    c.expect(s.symbol < round.symbols, property,
             cat("client ", s.client, " on symbol ", s.symbol,
                 " of a ", round.symbols, "-symbol round"));
  }
}

}  // namespace

void Checks::expect(bool ok, const std::string& property,
                    const std::string& detail) {
  ++evaluated_;
  auto& [runs, failed] = by_property_[property];
  ++runs;
  if (ok) return;
  ++failed;
  if (failures_.size() < kMaxStoredFailures) {
    failures_.push_back(property + ": " + detail);
  } else if (failures_.size() == kMaxStoredFailures) {
    failures_.push_back("(further failures not listed)");
  }
}

double cell_goodput_cap_bps(const TrafficModel& m) {
  const double payload = static_cast<double>(m.payload_bytes);
  return m.data_rate_bps * payload /
         (payload + static_cast<double>(m.mac_header_bytes));
}

void check_traffic(Checks& c, const TrafficModel& m,
                   const std::vector<FlowOutcome>& flows) {
  const double cap = cell_goodput_cap_bps(m);
  const double packet_bits = 8.0 * static_cast<double>(m.payload_bytes);
  std::map<topo::NodeId, double> cell_bps;
  double total_bps = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowOutcome& f = flows[i];
    const double delivered_bits =
        packet_bits * static_cast<double>(f.delivered_packets);
    const double offered_bits = f.offered_bps * m.duration_s;
    c.expect(delivered_bits <= offered_bits + packet_bits,
             "traffic.flow-conservation",
             cat("flow ", i, " delivered ", delivered_bits,
                 " bit > offered ", offered_bits, " bit + one packet (",
                 packet_bits, " bit)"));
    const double bps = delivered_bits / m.duration_s;
    cell_bps[f.ap] += bps;
    total_bps += bps;
  }
  if (m.roaming) {
    const double network_cap = cap * static_cast<double>(m.aps);
    c.expect(total_bps <= network_cap, "traffic.network-airtime",
             cat("network goodput ", total_bps / 1e6, " Mbit/s > ", m.aps,
                 " APs x ", cap / 1e6, " Mbit/s"));
    return;
  }
  for (const auto& [ap, bps] : cell_bps) {
    c.expect(bps <= cap, "traffic.cell-airtime",
             cat("AP ", ap, " cell goodput ", bps / 1e6, " Mbit/s > cap ",
                 cap / 1e6, " Mbit/s"));
  }
}

void check_partitions(Checks& c, std::size_t buildings, std::uint32_t found) {
  c.expect(found == buildings, "topo.partitions",
           cat("compute_partitions found ", found, " partitions, generator "
               "built ", buildings, " radio-isolated buildings"));
}

void check_static_plan(Checks& c, const rop::PollRound& round,
                       const std::vector<rop::PollClient>& clients,
                       std::size_t subchannels) {
  const std::size_t n = clients.size();
  const std::size_t want = std::max<std::size_t>(1, (n + subchannels - 1) /
                                                        subchannels);
  c.expect(round.symbols == want, "rop.static-symbols",
           cat(n, " clients planned on ", round.symbols,
               " symbols, expected ceil(", n, "/", subchannels, ") = ",
               want));
  std::set<topo::NodeId> planned;
  for (const rop::PollSlot& s : round.slots) planned.insert(s.client);
  std::size_t covered = 0;
  for (const rop::PollClient& pc : clients) covered += planned.count(pc.client);
  c.expect(covered == n && round.slots.size() == n, "rop.static-coverage",
           cat(covered, " of ", n, " clients covered by ",
               round.slots.size(), " poll slots"));
  check_round_layout(c, round, "rop.static-layout");
}

void check_adaptive_plan(Checks& c, const rop::PollRound& round,
                         std::size_t static_symbols,
                         std::size_t max_poll_symbols) {
  c.expect(round.symbols <= static_symbols &&
               round.symbols <= max_poll_symbols,
           "rop.adaptive-symbols",
           cat("adaptive round spans ", round.symbols,
               " symbols; static plan ", static_symbols,
               ", max_poll_symbols ", max_poll_symbols));
  check_round_layout(c, round, "rop.adaptive-layout");
}

void check_batch(Checks& c, const BatchInput& in) {
  const topo::Topology& t = *in.topo;
  const auto& links = *in.links;
  const auto link = [&](topo::LinkId id) {
    return links.at(static_cast<std::size_t>(id));
  };

  std::string conflict;
  for (std::size_t s = 0; s < in.strict.size() && conflict.empty(); ++s) {
    const auto& slot = in.strict[s];
    for (std::size_t i = 0; i < slot.size() && conflict.empty(); ++i) {
      for (std::size_t j = i + 1; j < slot.size(); ++j) {
        const std::string why =
            conflict_reason(t, link(slot[i]), link(slot[j]));
        if (!why.empty()) {
          conflict = cat("batch ", in.schedule.batch_id, " strict slot ", s,
                         ": links ", slot[i], " and ", slot[j], " ", why);
          break;
        }
      }
    }
  }
  c.expect(conflict.empty(), "domino.strict-conflict-free", conflict);

  std::set<topo::NodeId> placed;
  for (const domino::RelSlot& slot : in.schedule.slots) {
    placed.insert(slot.rop_aps.begin(), slot.rop_aps.end());
    std::map<topo::NodeId, int> inbound;
    std::map<topo::NodeId, int> outbound;
    for (const domino::Trigger& tr : slot.triggers) {
      ++inbound[tr.target];
      if (tr.continuation || tr.via == tr.target) continue;
      ++outbound[tr.via];
      const double rss = t.rss(tr.via, tr.target);
      c.expect(rss >= in.params.trigger_rss_floor_dbm, "domino.trigger-rss",
               cat("slot ", slot.global_index, ": trigger ", tr.via, " -> ",
                   tr.target, " at ", rss, " dBm < floor ",
                   in.params.trigger_rss_floor_dbm, " dBm"));
    }
    for (const auto& [target, n] : inbound) {
      c.expect(n <= in.params.max_inbound, "domino.trigger-inbound",
               cat("slot ", slot.global_index, ": target ", target, " gets ",
                   n, " triggers > max_inbound ", in.params.max_inbound));
    }
    for (const auto& [via, n] : outbound) {
      c.expect(n <= in.params.max_outbound, "domino.trigger-outbound",
               cat("slot ", slot.global_index, ": via ", via, " combines ",
                   n, " signatures > max_outbound ",
                   in.params.max_outbound));
    }
  }
  for (const topo::NodeId ap : in.polled) {
    c.expect(placed.count(ap) == 1, "domino.poll-placed",
             cat("batch ", in.schedule.batch_id, ": polled AP ", ap,
                 " has no ROP slot"));
  }
}

void check_lifecycle(Checks& c, const LifecycleCounts& l) {
  c.expect(l.joins <= l.leaves && l.leaves <= l.joins + l.churn_eligible,
           "lifecycle.accounting",
           cat("joins ", l.joins, ", leaves ", l.leaves,
               ", churn-eligible clients ", l.churn_eligible,
               ": need joins <= leaves <= joins + eligible"));
  c.expect(l.roams > 0, "lifecycle.roams", cat("roams = ", l.roams));
  c.expect(l.rss_updates > 0, "lifecycle.rss-updates",
           cat("RSS updates = ", l.rss_updates));
}

void check_poll_totals(Checks& c, std::uint64_t rounds, std::uint64_t symbols,
                       std::size_t max_symbols_per_round) {
  c.expect(rounds <= symbols && symbols <= rounds * max_symbols_per_round,
           "rop.round-symbols",
           cat(rounds, " poll rounds used ", symbols, " symbols; each round "
               "needs 1 to ", max_symbols_per_round));
}

void check_audit(Checks& c, const audit::AuditReport& report,
                 const std::vector<std::string>& known) {
  for (const auto& [invariant, n] : report.violations_by_invariant) {
    if (std::find(known.begin(), known.end(), invariant) != known.end()) {
      continue;
    }
    std::string first;
    for (const audit::AuditRecord& r : report.records) {
      if (r.invariant == invariant) {
        first = cat(" (first at ", r.sim_time, " ns: ", r.detail, ")");
        break;
      }
    }
    c.expect(false, "audit.violation-free",
             cat(n, " violations of ", invariant, first));
  }
  c.expect(report.checks_run > 0, "audit.checks", "audited run ran no checks");
}

void check_identical(Checks& c, const std::string& property,
                     const std::string& a, const std::string& b) {
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  c.expect(a == b, property,
           cat("serialized results differ at byte ", at, " (", a.size(),
               " vs ", b.size(), " bytes)"));
}

namespace {

/// Runs `oracle` on a valid and on a corrupted input: the valid one must
/// pass and the corrupted one must fail.
template <typename Valid, typename Corrupt>
void expect_fires(Checks& out, const std::string& name, Valid valid,
                  Corrupt corrupt) {
  Checks good;
  valid(good);
  out.expect(good.passed(), "self-test." + name,
             "oracle fired on a valid input: " +
                 (good.failures().empty() ? "" : good.failures().front()));
  Checks bad;
  corrupt(bad);
  out.expect(!bad.passed(), "self-test." + name,
             "oracle did not fire on a corrupted input");
}

/// A real batch planned by the program on a three-cell chain.
struct SelfTestBatch {
  topo::Topology topo;
  std::vector<topo::Link> links;
  BatchInput input;
};

SelfTestBatch plan_self_test_batch() {
  topo::ManualTopologyBuilder b;
  std::vector<topo::NodeId> aps;
  for (int a = 0; a < 3; ++a) {
    aps.push_back(b.add_ap());
    if (a > 0) b.sense(aps[a - 1], aps[a]);
    b.add_client(aps[a]);
    b.add_client(aps[a]);
  }
  SelfTestBatch st{b.build(), {}, {}};
  st.links = st.topo.make_links(true, true);
  const auto graph = topo::ConflictGraph::build(st.topo, st.links);
  const domino::SignaturePlan sig(st.topo.num_nodes());
  domino::ScheduleConverter conv(st.topo, graph, sig, {});
  domino::RandScheduler rand(graph);
  st.input.topo = &st.topo;
  st.input.links = &st.links;
  st.input.strict = rand.schedule_batch(
      std::vector<std::size_t>(st.links.size(), 1), 10);
  st.input.polled = st.topo.aps();
  st.input.schedule =
      conv.convert(st.input.strict, {}, st.input.polled, 1, 0);
  return st;
}

}  // namespace

void self_test(Checks& out) {
  TrafficModel m;
  m.duration_s = 1.0;
  m.payload_bytes = 512;
  m.mac_header_bytes = 28;
  m.data_rate_bps = 12e6;
  m.aps = 2;
  const std::vector<FlowOutcome> fair = {{0, 4e6, 900}, {1, 4e6, 900}};
  // 3,000 packets of 4,096 bit in one second: 12.3 Mbit/s through AP 0,
  // over its 11.4 Mbit/s airtime cap.
  const std::vector<FlowOutcome> over_cap = {{0, 8e6, 1500}, {0, 8e6, 1500}};
  expect_fires(
      out, "cell-airtime", [&](Checks& c) { check_traffic(c, m, fair); },
      [&](Checks& c) { check_traffic(c, m, over_cap); });
  expect_fires(
      out, "flow-conservation", [&](Checks& c) { check_traffic(c, m, fair); },
      [&](Checks& c) { check_traffic(c, m, {{0, 1e6, 300}}); });
  TrafficModel roam = m;
  roam.roaming = true;
  expect_fires(
      out, "network-airtime", [&](Checks& c) { check_traffic(c, roam, fair); },
      [&](Checks& c) {
        check_traffic(c, roam, {{0, 30e6, 7000}});
      });

  expect_fires(
      out, "partitions", [](Checks& c) { check_partitions(c, 10, 10); },
      [](Checks& c) { check_partitions(c, 10, 9); });

  rop::RopParams rp;
  rp.poll_mode = rop::PollMode::kMultiSymbol;
  const rop::PollPlanner planner(rp);
  std::vector<rop::PollClient> clients;
  for (int i = 0; i < 30; ++i) {
    clients.push_back({static_cast<topo::NodeId>(i), -50.0 - i, 0, 0});
  }
  const rop::PollRound plan = planner.plan_static(clients);
  const auto static_ok = [&](Checks& c) {
    check_static_plan(c, plan, clients, rp.num_subchannels);
  };
  expect_fires(out, "static-subchannel-repeat", static_ok, [&](Checks& c) {
    rop::PollRound bad = plan;
    bad.slots[1].symbol = bad.slots[0].symbol;
    bad.slots[1].subchannel = bad.slots[0].subchannel;
    check_static_plan(c, bad, clients, rp.num_subchannels);
  });
  expect_fires(out, "static-coverage", static_ok, [&](Checks& c) {
    rop::PollRound bad = plan;
    bad.slots.pop_back();
    check_static_plan(c, bad, clients, rp.num_subchannels);
  });
  expect_fires(out, "static-symbols", static_ok, [&](Checks& c) {
    rop::PollRound bad = plan;
    ++bad.symbols;
    check_static_plan(c, bad, clients, rp.num_subchannels);
  });
  expect_fires(
      out, "adaptive-symbols",
      [&](Checks& c) { check_adaptive_plan(c, plan, 2, rp.max_poll_symbols); },
      [&](Checks& c) { check_adaptive_plan(c, plan, 1, rp.max_poll_symbols); });

  const SelfTestBatch st = plan_self_test_batch();
  const auto batch_ok = [&](Checks& c) { check_batch(c, st.input); };
  expect_fires(out, "third-inbound-trigger", batch_ok, [&](Checks& c) {
    BatchInput bad = st.input;
    for (domino::RelSlot& slot : bad.schedule.slots) {
      if (slot.triggers.empty()) continue;
      const domino::Trigger t = slot.triggers.front();
      slot.triggers.insert(slot.triggers.end(), 2, t);
      break;
    }
    check_batch(c, bad);
  });
  expect_fires(out, "outbound-signatures", batch_ok, [&](Checks& c) {
    BatchInput bad = st.input;
    domino::RelSlot& slot = bad.schedule.slots.back();
    for (topo::NodeId n = 1; n <= 5; ++n) slot.triggers.push_back({0, n});
    check_batch(c, bad);
  });
  expect_fires(out, "trigger-rss-floor", batch_ok, [&](Checks& c) {
    // Clients of the first and last cell are out of each other's range.
    BatchInput bad = st.input;
    bad.schedule.slots.back().triggers.push_back({1, 7});
    check_batch(c, bad);
  });
  expect_fires(out, "strict-conflict", batch_ok, [&](Checks& c) {
    // Two links out of AP 0 need its one radio at once.
    BatchInput bad = st.input;
    bad.strict.front() = {0, 1};
    check_batch(c, bad);
  });
  expect_fires(out, "poll-placed", batch_ok, [&](Checks& c) {
    BatchInput bad = st.input;
    for (domino::RelSlot& slot : bad.schedule.slots) slot.rop_aps.clear();
    check_batch(c, bad);
  });

  const LifecycleCounts life{5, 6, 2, 10, 3};
  expect_fires(
      out, "lifecycle-accounting",
      [&](Checks& c) { check_lifecycle(c, life); },
      [&](Checks& c) {
        LifecycleCounts bad = life;
        bad.joins = bad.leaves + 1;
        check_lifecycle(c, bad);
      });
  expect_fires(
      out, "lifecycle-roams", [&](Checks& c) { check_lifecycle(c, life); },
      [&](Checks& c) {
        LifecycleCounts bad = life;
        bad.roams = 0;
        check_lifecycle(c, bad);
      });
  expect_fires(
      out, "poll-totals",
      [](Checks& c) { check_poll_totals(c, 10, 25, 3); },
      [](Checks& c) { check_poll_totals(c, 10, 31, 3); });
  audit::AuditReport clean;
  clean.checks_run = 100;
  audit::AuditReport dirty = clean;
  dirty.total_violations = 2;
  dirty.violations_by_invariant = {{"medium.power-sums", 1},
                                   {"rop.starved-client", 1}};
  expect_fires(
      out, "audit-violation",
      [&](Checks& c) { check_audit(c, clean, {"rop.starved-client"}); },
      [&](Checks& c) { check_audit(c, dirty, {"rop.starved-client"}); });
  expect_fires(
      out, "identical-bytes",
      [](Checks& c) { check_identical(c, "bytes", "abc", "abc"); },
      [](Checks& c) { check_identical(c, "bytes", "abc", "abd"); });
}

}  // namespace perfbench
