// The adaptive switch policy engine (src/switch/policy/): AutoHysteresis
// dwell control, PolicyOracle protocol scoring, the decision pipeline's
// veto/margin logic, and the engine driving a live hybrid stack — crossover
// under load, low-load stability, and bounded switching under injected
// faults (the section-7 oscillation regression).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "helpers.hpp"
#include "net/fault.hpp"
#include "switch/hybrid.hpp"
#include "switch/policy/auto_hysteresis.hpp"
#include "switch/policy/policy_oracle.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

SwitchLayer& sl(GroupHarness& h, std::size_t i) { return switch_layer_of(h.group.stack(i)); }

// ------------------------------------------------------------- AutoHysteresis

TEST(AutoHysteresis, InitialDwellAppliesUntilFirstObservation) {
  AutoHysteresis ah;
  EXPECT_EQ(ah.dwell(), kSecond);
  EXPECT_EQ(ah.overhead_mean(), 0);
  ah.observe(20 * kMillisecond);  // 20 ms / 0.004 duty = 5 s
  EXPECT_EQ(ah.dwell(), 5 * kSecond);
}

TEST(AutoHysteresis, DwellScalesWithObservedOverheadMean) {
  AutoHysteresis ah;
  ah.observe(8 * kMillisecond);
  ah.observe(16 * kMillisecond);
  EXPECT_EQ(ah.overhead_mean(), 12 * kMillisecond);
  EXPECT_EQ(ah.dwell(), 3 * kSecond);
}

TEST(AutoHysteresis, DwellClampsToFloorAndCeil) {
  AutoHysteresis cheap;
  cheap.observe(500);  // 0.5 ms -> 125 ms, below the 300 ms floor
  EXPECT_EQ(cheap.dwell(), 300 * kMillisecond);

  AutoHysteresis costly;
  costly.observe(80 * kMillisecond);  // -> 20 s, above the 10 s ceiling
  EXPECT_EQ(costly.dwell(), 10 * kSecond);
}

TEST(AutoHysteresis, RingEvictsOldSpansMostRecentWin) {
  AutoHysteresisConfig cfg;
  cfg.window = 4;
  AutoHysteresis ah(cfg);
  for (int i = 0; i < 4; ++i) ah.observe(2 * kMillisecond);
  EXPECT_EQ(ah.dwell(), 500 * kMillisecond);
  for (int i = 0; i < 4; ++i) ah.observe(4 * kMillisecond);
  // The cheap spans have been fully evicted; only the 4 ms spans remain.
  EXPECT_EQ(ah.overhead_mean(), 4 * kMillisecond);
  EXPECT_EQ(ah.dwell(), kSecond);
}

// ------------------------------------------------------------------- scoring

TEST(PolicyOracle, SequencerScoreRisesWithLoadAndBacklog) {
  PolicyOracle o;
  SignalVector idle;
  SignalVector busy;
  busy.delivered_rate = 300;
  EXPECT_GT(o.score_us(ProtocolKind::kSequencer, busy, 10),
            o.score_us(ProtocolKind::kSequencer, idle, 10));

  SignalVector backlogged = busy;
  backlogged.seq_pending = 10;
  EXPECT_GT(o.score_us(ProtocolKind::kSequencer, backlogged, 10),
            o.score_us(ProtocolKind::kSequencer, busy, 10));
}

TEST(PolicyOracle, OfferedLoadSeesSaturationTheDeliveredRateHides) {
  // Under sequencer saturation the delivered rate clamps at capacity, so a
  // throughput-only utilisation stays politely sub-critical. The offered
  // estimate (own send rate x group active senders) keeps growing.
  PolicyOracle o;
  SignalVector clamped;
  clamped.delivered_rate = 260;  // capacity
  clamped.send_rate = 50;
  clamped.active_senders = 2;
  SignalVector saturated = clamped;
  saturated.active_senders = 8;  // offered 400/s against the same clamp
  EXPECT_GT(o.score_us(ProtocolKind::kSequencer, saturated, 10),
            o.score_us(ProtocolKind::kSequencer, clamped, 10));
}

TEST(PolicyOracle, TokenScoreUsesMeasuredRotationElsePrior) {
  using namespace policy_priors;
  PolicyOracle o;
  SignalVector unmeasured;
  EXPECT_DOUBLE_EQ(o.score_us(ProtocolKind::kToken, unmeasured, 10),
                   kTokenBaseUs + 10 * kTokenHopUs / 2.0);

  SignalVector measured;
  measured.rotation_us = 40'000;
  EXPECT_DOUBLE_EQ(o.score_us(ProtocolKind::kToken, measured, 10), kTokenBaseUs + 20'000);
}

TEST(PolicyOracle, NetInflationScalesModelledBases) {
  // A degraded network (measured via the live ring rotation) must inflate
  // the prior-scored sequencer too, or the engine flees toward whichever
  // protocol is blind to the degradation.
  PolicyOracle o;
  SignalVector s;
  const double base = o.score_us(ProtocolKind::kSequencer, s, 10, 1.0);
  const double inflated = o.score_us(ProtocolKind::kSequencer, s, 10, 2.0);
  EXPECT_DOUBLE_EQ(inflated - base, policy_priors::kSeqBaseUs);
}

TEST(PolicyOracle, RankingCoversEveryProtocolKind) {
  PolicyOracle o;
  SignalVector s;
  s.delivered_rate = 100;
  s.active_senders = 3;
  for (std::size_t k = 0; k < kProtocolKinds; ++k) {
    EXPECT_GT(o.score_us(static_cast<ProtocolKind>(k), s, 10), 0.0)
        << to_string(static_cast<ProtocolKind>(k));
  }
  EXPECT_EQ(to_string(ProtocolKind::kSequencer), "sequencer");
  EXPECT_EQ(to_string(ProtocolKind::kToken), "token");
}

// ------------------------------------------- decision pipeline (synthetic)

OracleView view_at(int active, Time now, Time since, Duration rotation) {
  OracleView v;
  v.self = NodeId{0};
  v.active_protocol = active;
  v.now = now;
  v.since_last_switch = since;
  v.normal_rotation = rotation;
  return v;
}

// An unattached oracle scores for a 1-member group: sequencer-active scores
// exactly seq_base_us = 7000 (no load signals) against the token prior
// 2000 + 1800/2 = 2900, which makes the decision arithmetic exact.

TEST(PolicyOracle, DwellVetoSuppressesEarlySwitchExactlyAtBoundary) {
  // Zero the absolute cost so the 7000-vs-2900 gap clears the default 1.5x
  // margin: the scores say "switch" and only the dwell guard holds it.
  PolicyConfig cfg;
  cfg.switch_cost_us = 0;
  PolicyOracle o(cfg);
  EXPECT_FALSE(o.should_switch(view_at(0, kSecond - 1, kSecond - 1, 0)));
  EXPECT_EQ(o.stats().vetoed_dwell, 1u);
  EXPECT_TRUE(o.should_switch(view_at(0, kSecond, kSecond, 0)));
  EXPECT_EQ(o.stats().switch_decisions, 1u);
}

TEST(PolicyOracle, MarginAndCostBandHoldsNearTies) {
  // Default band (margin 1.5, cost 4000 µs): threshold 1.5*2900 + 4000 =
  // 8350 > 7000 — the gap is real but inside the band, so no switch.
  PolicyOracle held;
  EXPECT_FALSE(held.should_switch(view_at(0, 10 * kSecond, 10 * kSecond, 0)));
  EXPECT_EQ(held.stats().switch_decisions, 0u);

  // The guard is strictly `active > margin*alt + cost`: with margin 1.0 the
  // threshold is 2900 + cost — cost 4100 lands exactly on 7000 and holds,
  // one microsecond less clears.
  PolicyConfig at_boundary;
  at_boundary.switch_margin = 1.0;
  at_boundary.switch_cost_us = 4100;
  PolicyOracle on(at_boundary);
  EXPECT_FALSE(on.should_switch(view_at(0, 10 * kSecond, 10 * kSecond, 0)));

  PolicyConfig just_inside = at_boundary;
  just_inside.switch_cost_us = 4099;
  PolicyOracle in(just_inside);
  EXPECT_TRUE(in.should_switch(view_at(0, 10 * kSecond, 10 * kSecond, 0)));
}

// --------------------------------------------------- the engine in a stack

TEST(PolicyOracle, CrossesOverToTokenUnderHighLoad) {
  HybridConfig cfg;
  cfg.oracle = make_policy_oracle_factory();
  GroupHarness h(8, make_hybrid_total_order_factory(cfg), testing::era_net());
  // 6 senders x 50 msg/s: offered ~300/s against the ~333/s modelled
  // service rate — squarely past the crossover.
  for (std::size_t s = 0; s < 6; ++s) {
    for (int k = 0; k < 175; ++k) {
      h.sim.scheduler().at(s * kMillisecond + k * 20 * kMillisecond,
                           [&h, s] { h.group.send(s, to_bytes("x")); });
    }
  }
  h.sim.run_for(6 * kSecond);
  std::uint64_t switches = 0;
  for (std::size_t i = 0; i < h.group.size(); ++i) {
    switches = std::max(switches, sl(h, i).stats().switches_completed);
    EXPECT_EQ(sl(h, i).active_protocol(), 1) << "member " << i;
  }
  EXPECT_GE(switches, 1u);
  testing::expect_identical_delivery(h);
}

TEST(PolicyOracle, StaysOnSequencerAtLowLoad) {
  HybridConfig cfg;
  cfg.oracle = make_policy_oracle_factory();
  GroupHarness h(8, make_hybrid_total_order_factory(cfg), testing::era_net());
  for (std::size_t s = 0; s < 2; ++s) {
    for (int k = 0; k < 200; ++k) {
      h.sim.scheduler().at(s * kMillisecond + k * 20 * kMillisecond,
                           [&h, s] { h.group.send(s, to_bytes("x")); });
    }
  }
  h.sim.run_for(5 * kSecond);
  for (std::size_t i = 0; i < h.group.size(); ++i) {
    EXPECT_EQ(sl(h, i).stats().switches_completed, 0u) << "member " << i;
    EXPECT_EQ(sl(h, i).active_protocol(), 0) << "member " << i;
  }
}

TEST(PolicyOracle, BoundedSwitchesUnderInjectedFaults) {
  // The oscillation regression: flip-flop load under loss, duplication,
  // reordering, and jitter bursts. A threshold oracle flaps continuously
  // here; the policy engine must hold its switch count to a small bound
  // while still escaping the saturated sequencer.
  HybridConfig cfg;
  cfg.oracle = make_policy_oracle_factory();
  NetConfig net = testing::era_net();
  net.loss = 0.05;
  GroupHarness h(8, make_hybrid_total_order_factory(cfg), net);

  FaultSchedule sched;
  sched.dup_prob = 0.02;
  sched.reorder_prob = 0.05;
  for (Time at : {2 * kSecond, 6 * kSecond}) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kJitterBurst;
    e.at = at;
    e.duration = kSecond;
    e.magnitude = 5 * kMillisecond;
    sched.events.push_back(e);
  }
  FaultPlane plane(h.net, h.sim.fork_rng(), sched);
  plane.install();

  // 2 <-> 6 senders every 1.5 s for 10 s.
  for (std::size_t s = 0; s < 6; ++s) {
    for (int k = 0; k < 500; ++k) {
      const Time at = s * kMillisecond + k * 20 * kMillisecond;
      const std::size_t active = (at / (1500 * kMillisecond)) % 2 == 1 ? 6 : 2;
      if (s < active) {
        h.sim.scheduler().at(at, [&h, s] { h.group.send(s, to_bytes("x")); });
      }
    }
  }
  h.sim.run_for(14 * kSecond);
  std::uint64_t switches = 0;
  for (std::size_t i = 0; i < h.group.size(); ++i) {
    switches = std::max(switches, sl(h, i).stats().switches_completed);
  }
  EXPECT_GE(switches, 1u);  // it does escape the saturating sequencer
  EXPECT_LE(switches, 4u);  // and does not oscillate
  testing::expect_identical_delivery(h);
}

}  // namespace
}  // namespace msw
