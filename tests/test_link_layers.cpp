// The point-to-point specialization: stop-and-wait and go-back-N ARQ
// links, their trade-off, and protocol switching between them.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/link_layers.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

std::vector<StopAndWaitLayer*> g_sw;
std::vector<GoBackNLayer*> g_gbn;

LayerFactory stop_and_wait() {
  return [](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<StopAndWaitLayer>();
    g_sw.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

LayerFactory go_back_n(LinkConfig cfg = {}) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<GoBackNLayer>(cfg);
    g_gbn.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

class LinkLayers : public ::testing::Test {
 protected:
  void SetUp() override {
    g_sw.clear();
    g_gbn.clear();
  }
};

TEST_F(LinkLayers, StopAndWaitDeliversInOrder) {
  GroupHarness h(2, stop_and_wait());
  for (int i = 0; i < 10; ++i) h.group.send(0, to_bytes("s" + std::to_string(i)));
  h.sim.run_for(2 * kSecond);
  const auto got = h.delivered_data(1);
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
  // Sender's own copies loop back too.
  EXPECT_EQ(h.delivered_data(0).size(), 10u);
}

TEST_F(LinkLayers, StopAndWaitSurvivesLoss) {
  GroupHarness h(2, stop_and_wait(), testing::lossy_net(0.3), /*seed=*/91);
  for (int i = 0; i < 12; ++i) h.group.send(0, to_bytes("l" + std::to_string(i)));
  h.sim.run_for(20 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 12u);
  EXPECT_GT(g_sw[0]->stats().retransmissions, 0u);
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
}

TEST_F(LinkLayers, StopAndWaitOnePacketInFlight) {
  GroupHarness h(2, stop_and_wait());
  for (int i = 0; i < 5; ++i) h.group.send(0, to_bytes("q" + std::to_string(i)));
  // Immediately after sending, four frames must still be queued.
  EXPECT_EQ(g_sw[0]->queued(), 5u);  // all queued; first already in flight
  h.sim.run_for(kSecond);
  EXPECT_EQ(g_sw[0]->queued(), 0u);
}

TEST_F(LinkLayers, StopAndWaitUnknownFrameTypeIsACountedDrop) {
  GroupHarness h(2, stop_and_wait());
  testing::send_forged_frame(h, 1, 9);
  h.sim.run_for(10 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(1).empty());
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
}

TEST_F(LinkLayers, GoBackNDeliversInOrder) {
  GroupHarness h(2, go_back_n());
  for (int i = 0; i < 40; ++i) h.group.send(0, to_bytes("g" + std::to_string(i)));
  h.sim.run_for(2 * kSecond);
  const auto got = h.delivered_data(1);
  ASSERT_EQ(got.size(), 40u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
}

TEST_F(LinkLayers, GoBackNPipelinesWithinWindow) {
  LinkConfig cfg;
  cfg.window = 8;
  GroupHarness h(2, go_back_n(cfg));
  for (int i = 0; i < 20; ++i) h.group.send(0, to_bytes("w" + std::to_string(i)));
  EXPECT_EQ(g_gbn[0]->in_flight(), 8u);
  EXPECT_EQ(g_gbn[0]->queued(), 12u);
  h.sim.run_for(2 * kSecond);
  EXPECT_EQ(g_gbn[0]->in_flight(), 0u);
  EXPECT_EQ(h.delivered_data(1).size(), 20u);
}

TEST_F(LinkLayers, GoBackNSurvivesLoss) {
  GroupHarness h(2, go_back_n(), testing::lossy_net(0.25), /*seed=*/17);
  for (int i = 0; i < 30; ++i) h.group.send(0, to_bytes("x" + std::to_string(i)));
  h.sim.run_for(20 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 30u);
  EXPECT_GT(g_gbn[0]->stats().retransmissions, 0u);
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
}

TEST_F(LinkLayers, GoBackNUnknownFrameTypeIsACountedDrop) {
  GroupHarness h(2, go_back_n());
  testing::send_forged_frame(h, 1, 9);
  h.sim.run_for(10 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(1).empty());
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
}

TEST_F(LinkLayers, BidirectionalTraffic) {
  GroupHarness h(2, go_back_n());
  for (int i = 0; i < 10; ++i) {
    h.group.send(0, to_bytes("a" + std::to_string(i)));
    h.group.send(1, to_bytes("b" + std::to_string(i)));
  }
  h.sim.run_for(2 * kSecond);
  EXPECT_EQ(h.delivered_data(0).size(), 20u);
  EXPECT_EQ(h.delivered_data(1).size(), 20u);
}

TEST_F(LinkLayers, ThroughputTradeoff) {
  // At a rate beyond 1/RTT, stop-and-wait falls behind; go-back-N keeps
  // up. (RTT here ~2 ms, so 2000 msg/s is far beyond 1/RTT ~ 500/s.)
  auto run = [](const LayerFactory& f) {
    GroupHarness h(2, f, testing::ideal_net(), 3);
    for (int i = 0; i < 200; ++i) {
      h.sim.scheduler().at(i * 500, [&h, i] {  // 0.5 ms apart
        h.group.send(0, to_bytes("t" + std::to_string(i)));
      });
    }
    h.sim.run_until(200 * kMillisecond);  // not enough time for S&W
    return h.delivered_data(1).size();
  };
  g_sw.clear();
  const auto sw_delivered = run(stop_and_wait());
  const auto gbn_delivered = run(go_back_n());
  EXPECT_EQ(gbn_delivered, 200u);
  EXPECT_LT(sw_delivered, 150u) << "stop-and-wait should cap near 1/RTT";
}

TEST_F(LinkLayers, SpSwitchesBetweenLinkProtocols) {
  // The paper's specialization, end to end: SP over the two ARQ links on
  // a 2-member "group", switching mid-stream with no loss or reorder.
  GroupHarness h(2, make_switch_factory(stop_and_wait(), go_back_n()));
  for (int i = 0; i < 30; ++i) {
    h.sim.scheduler().at(i * 5 * kMillisecond,
                         [&, i] { h.group.send(0, to_bytes("p" + std::to_string(i))); });
  }
  h.sim.scheduler().at(70 * kMillisecond,
                       [&] { switch_layer_of(h.group.stack(0)).request_switch(); });
  h.sim.run_for(10 * kSecond);
  EXPECT_EQ(switch_layer_of(h.group.stack(1)).epoch(), 1u);
  const auto got = h.delivered_data(1);
  ASSERT_EQ(got.size(), 30u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST_F(LinkLayers, SwitchUnderLossStillExactlyOnce) {
  GroupHarness h(2, make_switch_factory(stop_and_wait(), go_back_n()),
                 testing::lossy_net(0.2), /*seed=*/47);
  for (int i = 0; i < 15; ++i) {
    h.sim.scheduler().at(i * 8 * kMillisecond,
                         [&, i] { h.group.send(0, to_bytes("z" + std::to_string(i))); });
  }
  h.sim.scheduler().at(60 * kMillisecond,
                       [&] { switch_layer_of(h.group.stack(1)).request_switch(); });
  h.sim.run_for(30 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 15u);
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
}

}  // namespace
}  // namespace msw
