// PriorityLayer (master-first delivery) and AmoebaLayer (sender blocked on
// its own outstanding message), checked against their Table 1 predicates.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/amoeba_layer.hpp"
#include "proto/priority_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

std::vector<PriorityLayer*> g_priority;
std::vector<AmoebaLayer*> g_amoeba;

LayerFactory priority_stack() {
  return [](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<PriorityLayer>();
    g_priority.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

LayerFactory amoeba_stack() {
  return [](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<AmoebaLayer>();
    g_amoeba.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

class PropertyLayers : public ::testing::Test {
 protected:
  void SetUp() override {
    g_priority.clear();
    g_amoeba.clear();
  }
};

TEST_F(PropertyLayers, MasterDeliversFirstAlways) {
  GroupHarness h(4, priority_stack());
  for (int i = 0; i < 8; ++i) h.group.send(i % 4, to_bytes("p" + std::to_string(i)));
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 8u) << "member " << p;
  }
  EXPECT_TRUE(PrioritizedDeliveryProperty(h.group.node(0).v).holds(h.group.trace()));
}

TEST_F(PropertyLayers, NonMasterHoldsUntilRelease) {
  GroupHarness h(3, priority_stack());
  // Cut the master's outbound links so releases cannot propagate.
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  h.net.set_link_up(h.group.node(0), h.group.node(2), false);
  h.group.send(1, to_bytes("held"));
  h.sim.run_for(kSecond);
  // The master delivered (it got the data from member 1 directly)...
  EXPECT_EQ(h.delivered_data(0).size(), 1u);
  // ...but no one else has, because the RELEASE is stuck.
  EXPECT_EQ(h.delivered_data(1).size(), 0u);
  EXPECT_EQ(h.delivered_data(2).size(), 0u);
  EXPECT_GT(g_priority[1]->held() + g_priority[2]->held(), 0u);
  // Heal; releases flow; property still holds.
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.net.set_link_up(h.group.node(0), h.group.node(2), true);
  // The release was already multicast and lost; this layer relies on the
  // layer below for reliability. Re-sending data re-triggers a release.
  h.group.send(1, to_bytes("second"));
  h.sim.run_for(kSecond);
  EXPECT_TRUE(PrioritizedDeliveryProperty(h.group.node(0).v).holds(h.group.trace()));
}

TEST_F(PropertyLayers, ReleaseBeforeDataStillDelivers) {
  // If the release overtakes the data (possible with unordered transport),
  // the held message is delivered on arrival.
  GroupHarness h(2, priority_stack());
  h.group.send(0, to_bytes("x"));  // master's own message: releases flow out
  h.sim.run_for(kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 1u);
  EXPECT_TRUE(PrioritizedDeliveryProperty(h.group.node(0).v).holds(h.group.trace()));
}

TEST_F(PropertyLayers, PriorityUnknownFrameTypeIsACountedDrop) {
  GroupHarness h(3, priority_stack());
  testing::send_forged_frame(h, 1, 9);
  h.sim.run_for(10 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(1).empty());
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
}

TEST_F(PropertyLayers, AmoebaUnknownFrameTypeIsACountedDrop) {
  // Read as data, the frame would deliver a message member 2 never sent
  // (and, at member 0, release its next queued send early).
  GroupHarness h(3, amoeba_stack());
  testing::send_forged_frame(h, 1, 9);
  h.sim.run_for(10 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(1).empty());
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
}

TEST_F(PropertyLayers, AmoebaGatesSecondSend) {
  GroupHarness h(3, amoeba_stack());
  // Two back-to-back sends: the second must wait below the layer until the
  // first returns.
  h.group.send(0, to_bytes("first"));
  h.group.send(0, to_bytes("second"));
  EXPECT_EQ(g_amoeba[0]->queued(), 1u);
  EXPECT_FALSE(g_amoeba[0]->ready());
  h.sim.run_for(2 * kSecond);
  EXPECT_EQ(g_amoeba[0]->queued(), 0u);
  EXPECT_TRUE(g_amoeba[0]->ready());
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 2u);
  }
}

TEST_F(PropertyLayers, AmoebaCooperativeAppTraceSatisfiesProperty) {
  GroupHarness h(3, amoeba_stack());
  // A cooperative app: sends only when the layer reports ready, polling on
  // a timer — so Send events at the app boundary respect the property.
  int remaining = 6;
  std::function<void()> pump = [&] {
    if (remaining > 0 && g_amoeba[1]->ready()) {
      h.group.send(1, to_bytes("c" + std::to_string(remaining)));
      --remaining;
    }
    if (remaining > 0) h.sim.scheduler().after(2 * kMillisecond, pump);
  };
  h.sim.scheduler().after(0, pump);
  h.sim.run_for(5 * kSecond);
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(h.delivered_data(0).size(), 6u);
  EXPECT_TRUE(AmoebaProperty().holds(h.group.trace()));
}

TEST_F(PropertyLayers, AmoebaFreeSendingAppViolatesAtBoundary) {
  // The uncooperative app fires two sends back-to-back: the WIRE behaviour
  // is still gated, but the app-boundary trace (where Send events are
  // recorded at submission) shows the violation — exactly the distinction
  // between tr_below and tr_above in the paper's meta-property formalism.
  GroupHarness h(2, amoeba_stack());
  h.group.send(0, to_bytes("a"));
  h.group.send(0, to_bytes("b"));
  h.sim.run_for(kSecond);
  EXPECT_FALSE(AmoebaProperty().holds(h.group.trace()));
}

TEST_F(PropertyLayers, AmoebaQueueDrainsInOrder) {
  GroupHarness h(2, amoeba_stack());
  for (int i = 0; i < 5; ++i) h.group.send(0, to_bytes("q" + std::to_string(i)));
  EXPECT_EQ(g_amoeba[0]->queued(), 4u);
  h.sim.run_for(3 * kSecond);
  const auto got = h.delivered_data(1);
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
}

}  // namespace
}  // namespace msw
