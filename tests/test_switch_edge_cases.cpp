// SP corner cases: switching with zero traffic, requests arriving
// mid-switch, singleton groups, simultaneous oracle opinions, and the
// stats surface.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

SwitchLayer& sl(GroupHarness& h, std::size_t i) { return switch_layer_of(h.group.stack(i)); }

TEST(SwitchEdge, SwitchWithZeroTraffic) {
  // No messages at all: every count is zero, the drain is trivially
  // satisfied, and the switch still takes exactly three rotations.
  GroupHarness h(4, make_hybrid_total_order_factory());
  h.sim.run_for(100 * kMillisecond);
  sl(h, 0).request_switch();
  h.sim.run_for(2 * kSecond);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sl(h, i).epoch(), 1u);
    EXPECT_EQ(sl(h, i).stats().max_buffered, 0u);
  }
  EXPECT_GT(sl(h, 0).stats().last_switch_duration, 0);
}

TEST(SwitchEdge, RequestDuringSwitchWaitsForNormalToken) {
  GroupHarness h(3, make_hybrid_total_order_factory());
  h.sim.run_for(100 * kMillisecond);
  sl(h, 0).request_switch();
  // Step until member 1 observes the switch in progress, then request from
  // member 1: it must produce a SECOND switch after the first completes.
  bool requested = false;
  for (int i = 0; i < 2000 && !requested; ++i) {
    h.sim.run_for(kMillisecond);
    if (sl(h, 1).switching()) {
      sl(h, 1).request_switch();
      requested = true;
    }
  }
  ASSERT_TRUE(requested);
  h.sim.run_for(5 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sl(h, i).epoch(), 2u) << "member " << i;
    EXPECT_EQ(sl(h, i).active_protocol(), 0);
  }
}

TEST(SwitchEdge, SingletonGroupSwitches) {
  GroupHarness h(1, make_hybrid_total_order_factory());
  h.group.send(0, to_bytes("pre"));
  h.sim.run_for(200 * kMillisecond);
  sl(h, 0).request_switch();
  h.sim.run_for(kSecond);
  EXPECT_EQ(sl(h, 0).epoch(), 1u);
  h.group.send(0, to_bytes("post"));
  h.sim.run_for(kSecond);
  EXPECT_EQ(h.delivered_data(0).size(), 2u);
}

TEST(SwitchEdge, AllOraclesAgreeOnlyTokenHolderInitiates) {
  // Every member's oracle says "switch" simultaneously; exactly one
  // initiation happens per NORMAL token epoch — the others see the new
  // protocol and (for a one-shot threshold oracle on protocol 1) go quiet.
  HybridConfig cfg;
  cfg.oracle = [](NodeId) { return std::make_unique<ThresholdOracle>(1); };
  GroupHarness h(5, make_hybrid_total_order_factory(cfg), testing::era_net());
  // Two steady senders keep active_senders >= 1 through the whole run, so
  // protocol 0 wants out but protocol 1 (>= threshold) wants to stay. (If
  // the traffic stopped, the oracle would legitimately switch back.)
  for (int k = 0; k < 320; ++k) {
    h.sim.scheduler().at(k * 10 * kMillisecond,
                         [&, k] { h.group.send(k % 2, to_bytes("o" + std::to_string(k))); });
  }
  h.sim.run_for(3 * kSecond);
  std::uint64_t initiated = 0;
  for (std::size_t i = 0; i < 5; ++i) initiated += sl(h, i).stats().switches_initiated;
  EXPECT_EQ(initiated, 1u) << "exactly one member may capture the NORMAL token";
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sl(h, i).epoch(), 1u);
    EXPECT_EQ(sl(h, i).active_protocol(), 1);
  }
}

TEST(SwitchEdge, StatsSurfaceIsCoherent) {
  GroupHarness h(3, make_hybrid_total_order_factory());
  for (int k = 0; k < 9; ++k) h.group.send(k % 3, to_bytes("s" + std::to_string(k)));
  h.sim.run_for(300 * kMillisecond);
  sl(h, 2).request_switch();
  h.sim.run_for(3 * kSecond);
  const auto& stats = sl(h, 2).stats();
  EXPECT_EQ(stats.switches_initiated, 1u);
  EXPECT_EQ(stats.switches_completed, 1u);
  EXPECT_EQ(stats.switch_durations.count(), 1u);
  EXPECT_NEAR(stats.switch_durations.mean(), to_ms(stats.last_switch_duration), 1e-9);
  EXPECT_GE(stats.last_switch_duration, stats.last_local_switch_duration);
  EXPECT_GT(stats.token_hops, 0u);
  EXPECT_EQ(stats.stale_dropped, 0u);  // lossless run: no stale duplicates
}

TEST(SwitchEdge, EpochOfNextSendTracksPrepare) {
  GroupHarness h(3, make_hybrid_total_order_factory());
  h.sim.run_for(100 * kMillisecond);
  EXPECT_EQ(sl(h, 0).epoch_of_next_send(), 0u);
  sl(h, 0).request_switch();
  bool observed = false;
  for (int i = 0; i < 2000 && !observed; ++i) {
    h.sim.run_for(kMillisecond);
    if (sl(h, 0).switching()) {
      EXPECT_EQ(sl(h, 0).epoch_of_next_send(), 1u);
      observed = true;
    }
  }
  EXPECT_TRUE(observed);
  h.sim.run_for(3 * kSecond);
  EXPECT_EQ(sl(h, 0).epoch_of_next_send(), 1u);
}

TEST(SwitchEdge, EpochCounterWrapsAround) {
  // Start one step below the u64 wraparound: the switch goes MAX -> 0 and
  // every token-mode comparison must treat "has switched" as epoch
  // inequality, not ordering (epoch 0 is NOT "older" than epoch MAX).
  HybridConfig cfg;
  cfg.sp.initial_epoch = ~std::uint64_t{0};
  GroupHarness h(3, make_hybrid_total_order_factory(cfg));
  for (int k = 0; k < 4; ++k) h.group.send(k % 3, to_bytes("pre" + std::to_string(k)));
  h.sim.run_for(200 * kMillisecond);
  ASSERT_EQ(sl(h, 0).active_protocol(), 1);  // MAX is odd: token protocol
  sl(h, 0).request_switch();
  h.sim.run_for(3 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sl(h, i).epoch(), 0u) << "member " << i;
    EXPECT_EQ(sl(h, i).active_protocol(), 0);
    EXPECT_FALSE(sl(h, i).switching());
  }
  for (int k = 0; k < 4; ++k) h.group.send(k % 3, to_bytes("post" + std::to_string(k)));
  h.sim.run_for(2 * kSecond);
  EXPECT_EQ(h.delivered_data(0).size(), 8u);
  testing::expect_identical_delivery(h);

  // And once more across the wrap (0 -> 1) for good measure.
  sl(h, 1).request_switch();
  h.sim.run_for(3 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(sl(h, i).epoch(), 1u);
}

TEST(SwitchEdge, BufferedNewEpochReleasedInOrderAfterDrain) {
  // Member 2 is cut off from the sequencer (link 0->2 down) and misses
  // epoch-0 messages, so it cannot finish draining. Members 0 and 1 switch
  // and send epoch-1 traffic on the new protocol; member 2 must buffer it,
  // then — after the link heals and the drain completes — release it in
  // the new protocol's order, identical at every member.
  GroupHarness h(3, make_hybrid_total_order_factory());
  h.sim.run_for(50 * kMillisecond);
  h.net.set_link_up(h.group.node(0), h.group.node(2), false);
  for (int k = 0; k < 3; ++k) h.group.send(0, to_bytes("old" + std::to_string(k)));
  h.sim.run_for(100 * kMillisecond);
  sl(h, 0).request_switch();
  h.sim.run_for(300 * kMillisecond);
  EXPECT_FALSE(sl(h, 0).switching());
  EXPECT_TRUE(sl(h, 2).switching()) << "member 2 cannot drain while cut off";
  for (int k = 0; k < 3; ++k) h.group.send(1, to_bytes("new" + std::to_string(k)));
  h.sim.run_for(300 * kMillisecond);
  EXPECT_TRUE(sl(h, 2).switching());
  EXPECT_GE(sl(h, 2).buffered(), 3u) << "epoch-1 traffic must be buffered, not dropped";
  h.net.set_link_up(h.group.node(0), h.group.node(2), true);
  h.sim.run_for(3 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(sl(h, i).switching()) << "member " << i;
    EXPECT_EQ(sl(h, i).epoch(), 1u);
    EXPECT_EQ(sl(h, i).buffered(), 0u);
  }
  EXPECT_GE(sl(h, 2).stats().max_buffered, 3u);
  EXPECT_EQ(h.delivered_data(2).size(), 6u);
  testing::expect_identical_delivery(h);
}

TEST(SwitchEdge, InitiatorReRequestMidSwitchYieldsSecondSwitch) {
  // A request on the member whose own switch is still in flight must not
  // be lost or double-applied: it initiates exactly one more switch after
  // the current one completes.
  GroupHarness h(3, make_hybrid_total_order_factory());
  h.sim.run_for(100 * kMillisecond);
  sl(h, 0).request_switch();
  bool requested = false;
  for (int i = 0; i < 2000 && !requested; ++i) {
    h.sim.run_for(kMillisecond);
    if (sl(h, 0).switching()) {
      sl(h, 0).request_switch();
      requested = true;
    }
  }
  ASSERT_TRUE(requested);
  h.sim.run_for(5 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sl(h, i).epoch(), 2u) << "member " << i;
    EXPECT_FALSE(sl(h, i).switching());
  }
  EXPECT_EQ(sl(h, 0).stats().switches_initiated, 2u);
}

TEST(SwitchEdge, ActiveSendersWindowDecays) {
  SwitchConfig cfg;
  cfg.sender_window = 100 * kMillisecond;
  HybridConfig hcfg;
  hcfg.sp = cfg;
  GroupHarness h(3, make_hybrid_total_order_factory(hcfg));
  h.group.send(0, to_bytes("one"));
  h.group.send(1, to_bytes("two"));
  h.sim.run_for(50 * kMillisecond);
  EXPECT_EQ(sl(h, 2).active_senders(), 2u);
  h.sim.run_for(500 * kMillisecond);  // window expires
  EXPECT_EQ(sl(h, 2).active_senders(), 0u);
}

TEST(SwitchEdge, SlowRotationDoesNotInflateConsultedSenderCount) {
  // Regression: the sender window must be pruned against *consult time*,
  // not against the last delivery. With a slowed token rotation (pacing
  // period ≫ sender window), a consult arriving long after traffic stopped
  // used to report the stale count — the oracle then saw phantom load
  // exactly when the ring was slow, the worst moment to over-count.
  struct RecordingOracle : Oracle {
    std::vector<std::pair<Time, std::size_t>>* log;
    explicit RecordingOracle(std::vector<std::pair<Time, std::size_t>>* l) : log(l) {}
    bool should_switch(const OracleView& v) override {
      log->push_back({v.now, v.active_senders});
      return false;
    }
  };
  auto log = std::make_shared<std::vector<std::pair<Time, std::size_t>>>();
  HybridConfig hcfg;
  hcfg.sp.sender_window = 100 * kMillisecond;
  hcfg.sp.normal_period = 900 * kMillisecond;  // rotation ~0.9 s ≫ window
  hcfg.oracle = [log](NodeId) { return std::make_unique<RecordingOracle>(log.get()); };
  GroupHarness h(3, make_hybrid_total_order_factory(hcfg));
  // Both senders stay active for the first 2 s, then go silent.
  for (int k = 0; k < 66; ++k) {
    h.sim.scheduler().at(k * 30 * kMillisecond, [&h, k] {
      h.group.send(k % 2, to_bytes("x" + std::to_string(k)));
    });
  }
  h.sim.run_for(5 * kSecond);
  bool saw_both = false;
  for (const auto& [t, senders] : *log) {
    if (senders == 2) saw_both = true;
    if (t >= 2 * kSecond + 200 * kMillisecond) {
      EXPECT_EQ(senders, 0u) << "stale sender count at t=" << t;
    }
  }
  EXPECT_TRUE(saw_both);
}

TEST(SwitchEdge, DwellClockSeededFromLayerStart) {
  // Regression: with last_switch_time_ defaulting to 0, a group started at
  // a nonzero time base saw since_last_switch == now on the very first
  // consult — vacuously past any dwell guard. The dwell clock must run
  // from layer start.
  Simulation sim(1);
  Network net(sim.scheduler(), sim.fork_rng(), testing::ideal_net());
  sim.run_until(5 * kSecond);  // nonzero time base before the group exists
  HybridConfig cfg;
  // high = 1: a single steady sender makes the oracle want out immediately;
  // only the 2 s dwell (counted from layer start at t = 5 s) holds it.
  cfg.oracle = [](NodeId) { return std::make_unique<HysteresisOracle>(0, 1, 2 * kSecond); };
  Group group(sim, net, 3, make_hybrid_total_order_factory(cfg));
  group.start();
  for (int k = 0; k < 70; ++k) {
    sim.scheduler().at(5 * kSecond + k * 50 * kMillisecond,
                       [&group] { group.send(0, to_bytes("x")); });
  }
  const auto initiated = [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      n += switch_layer_of(group.stack(i)).stats().switches_initiated;
    }
    return n;
  };
  sim.run_until(6900 * kMillisecond);
  EXPECT_EQ(initiated(), 0u);  // t0 + 2 s = 7 s not reached yet
  sim.run_until(8500 * kMillisecond);
  EXPECT_GE(initiated(), 1u);
}

TEST(SwitchEdge, MalformedFramesAreCountedDrops) {
  // Two sequencer frames (kSequenced: gseq, origin, oseq) on protocol A's
  // channel reach member 1. The first carries an SP data header of a type
  // SP does not define, the second an epoch whose parity names the token
  // protocol. Neither reaches the application, and nothing throws out of
  // the sequencer's reorder loop. A control frame of an undefined type,
  // shaped like an ack, is not taken for one. All three count in
  // sp.decode_drops.
  GroupHarness h(3, make_hybrid_total_order_factory());
  const auto forge = [](std::uint64_t gseq, auto&& sp_header) {
    Message m = Message::group(to_bytes("forged"));
    AppHeader::push(m, AppHeader{AppHeader::Kind::kData, 2, 77});
    m.push_header(sp_header);
    m.push_header([gseq](Writer& w) {
      w.u8(1);
      w.u64(gseq);
      w.u32(0);
      w.u64(gseq);
    });
    Mux::push(m, 0);
    return std::move(m.data);
  };
  h.net.send(h.group.node(0), h.group.node(1), forge(0, [](Writer& w) { w.u8(7); }));
  h.net.send(h.group.node(0), h.group.node(1), forge(1, [](Writer& w) {
               w.u8(0);
               w.u64(1);  // odd epoch: the token protocol's
               w.u32(2);
               w.u64(0);
             }));
  Message ctl = Message::group({});
  ctl.push_header([](Writer& w) {
    w.u8(9);
    w.u64(1);
  });
  Mux::push(ctl, 2);
  h.net.send(h.group.node(0), h.group.node(1), std::move(ctl.data));
  h.sim.run_for(100 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(1).empty());
  EXPECT_EQ(sl(h, 1).stats().decode_drops, 3u);
}

}  // namespace
}  // namespace msw
