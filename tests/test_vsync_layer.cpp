// VsyncLayer: view installation, flush cuts, send blocking during flush,
// and the Virtual Synchrony property on captured traces.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/reliable_layer.hpp"
#include "proto/vsync_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

std::vector<VsyncLayer*> g_vsync;

LayerFactory vsync_stack() {
  return [](NodeId, const std::vector<NodeId>&) {
    auto v = std::make_unique<VsyncLayer>();
    g_vsync.push_back(v.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(v));
    layers.push_back(std::make_unique<ReliableLayer>());
    return layers;
  };
}

class VsyncTest : public ::testing::Test {
 protected:
  void SetUp() override { g_vsync.clear(); }
};

std::vector<std::uint64_t> view_markers_at(const Trace& tr, std::uint32_t proc) {
  std::vector<std::uint64_t> out;
  for (const auto& e : tr) {
    if (e.is_deliver() && e.process == proc && e.is_view_marker()) out.push_back(e.msg.seq);
  }
  return out;
}

TEST_F(VsyncTest, InitialViewDeliveredEverywhere) {
  GroupHarness h(3, vsync_stack());
  h.sim.run_for(100 * kMillisecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(view_markers_at(h.group.trace(), h.group.node(p).v),
              (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(g_vsync[p]->current_view(), 1u);
    EXPECT_EQ(g_vsync[p]->view_members().size(), 3u);
  }
}

TEST_F(VsyncTest, DataFlowsWithinView) {
  GroupHarness h(3, vsync_stack());
  for (int i = 0; i < 5; ++i) h.group.send(i % 3, to_bytes("d" + std::to_string(i)));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 5u);
  }
  EXPECT_TRUE(VirtualSynchronyProperty().holds(h.group.trace()));
}

TEST_F(VsyncTest, ViewChangeInstallsEverywhere) {
  GroupHarness h(3, vsync_stack());
  h.sim.run_for(50 * kMillisecond);
  ASSERT_TRUE(g_vsync[0]->request_view_change({h.group.node(0).v, h.group.node(1).v}));
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(g_vsync[p]->current_view(), 2u) << "member " << p;
    EXPECT_EQ(g_vsync[p]->view_members().size(), 2u);
    EXPECT_EQ(view_markers_at(h.group.trace(), h.group.node(p).v),
              (std::vector<std::uint64_t>{1, 2}));
  }
}

TEST_F(VsyncTest, OnlyCoordinatorMayChangeViews) {
  GroupHarness h(3, vsync_stack());
  h.sim.run_for(50 * kMillisecond);
  EXPECT_FALSE(g_vsync[1]->request_view_change({h.group.node(0).v}));
  EXPECT_FALSE(g_vsync[2]->request_view_change({h.group.node(0).v}));
}

TEST_F(VsyncTest, ConcurrentChangeRequestRejected) {
  GroupHarness h(3, vsync_stack());
  h.sim.run_for(50 * kMillisecond);
  EXPECT_TRUE(g_vsync[0]->request_view_change({h.group.node(0).v, h.group.node(1).v}));
  EXPECT_FALSE(g_vsync[0]->request_view_change({h.group.node(0).v}));
  h.sim.run_for(2 * kSecond);
  EXPECT_TRUE(g_vsync[0]->request_view_change({h.group.node(0).v}));
}

TEST_F(VsyncTest, MessagesCutCleanlyAtViewBoundary) {
  GroupHarness h(3, vsync_stack());
  // Traffic in view 1, then a view change racing with more traffic.
  for (int i = 0; i < 4; ++i) h.group.send(1, to_bytes("v1-" + std::to_string(i)));
  h.sim.run_for(200 * kMillisecond);
  g_vsync[0]->request_view_change({h.group.node(0).v, h.group.node(1).v, h.group.node(2).v});
  for (int i = 0; i < 4; ++i) h.group.send(2, to_bytes("race-" + std::to_string(i)));
  h.sim.run_for(3 * kSecond);
  // Everything is eventually delivered everywhere...
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 8u) << "member " << p;
  }
  // ...and every member agrees on which side of the boundary each message
  // fell: the trace is virtually synchronous.
  EXPECT_TRUE(VirtualSynchronyProperty().holds(h.group.trace()));
}

TEST_F(VsyncTest, SendsBlockedDuringFlushAreReleasedInNewView) {
  GroupHarness h(3, vsync_stack());
  h.sim.run_for(50 * kMillisecond);
  g_vsync[0]->request_view_change({h.group.node(0).v, h.group.node(1).v, h.group.node(2).v});
  // Immediately queue sends: the flush has not completed yet.
  h.group.send(0, to_bytes("queued1"));
  h.group.send(0, to_bytes("queued2"));
  h.sim.run_for(3 * kSecond);
  EXPECT_EQ(g_vsync[0]->current_view(), 2u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 2u);
  }
  EXPECT_TRUE(VirtualSynchronyProperty().holds(h.group.trace()));
}

TEST_F(VsyncTest, MultipleSequentialViewChanges) {
  GroupHarness h(4, vsync_stack());
  h.sim.run_for(50 * kMillisecond);
  for (std::uint64_t target = 2; target <= 5; ++target) {
    std::vector<std::uint32_t> members;
    for (std::size_t p = 0; p < 4; ++p) members.push_back(h.group.node(p).v);
    ASSERT_TRUE(g_vsync[0]->request_view_change(members));
    h.group.send(1, to_bytes("between" + std::to_string(target)));
    h.sim.run_for(2 * kSecond);
    for (std::size_t p = 0; p < 4; ++p) {
      ASSERT_EQ(g_vsync[p]->current_view(), target) << "member " << p;
    }
  }
  EXPECT_TRUE(VirtualSynchronyProperty().holds(h.group.trace()));
}

TEST_F(VsyncTest, ViewBodyEncodesMembers) {
  const std::vector<std::uint32_t> members = {3, 1, 4, 1, 5};
  EXPECT_EQ(decode_view_body(encode_view_body(members)), members);
  EXPECT_TRUE(decode_view_body(encode_view_body({})).empty());
}

TEST_F(VsyncTest, AppSeesViewNotificationBody) {
  GroupHarness h(2, vsync_stack());
  std::vector<std::uint32_t> seen;
  h.group.stack(1).set_on_deliver([&](const MsgId& id, std::span<const Byte> body) {
    if (id.kind == MsgId::Kind::kView) seen = decode_view_body(body);
  });
  h.sim.run_for(50 * kMillisecond);
  g_vsync[0]->request_view_change({h.group.node(0).v});
  h.sim.run_for(2 * kSecond);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{h.group.node(0).v}));
}

TEST_F(VsyncTest, FramesWithHugeCountsAreDropped) {
  // A FLUSH request (kFlushReq: view, member count) and a cut (kCut: view,
  // member count), each claiming 2^32 - 1 four-byte members and carrying
  // none, under the reliable layer's pass-through byte. Reserving for the
  // claim would abort the process; the frames are dropped and the view
  // keeps carrying data.
  GroupHarness h(3, vsync_stack());
  h.sim.run_for(10 * kMillisecond);
  const std::uint64_t view = g_vsync[1]->current_view();
  for (const std::uint8_t type : {std::uint8_t{1}, std::uint8_t{3}}) {
    Message m = Message::group({});
    m.push_header([type](Writer& w) {
      w.u8(type);
      w.u64(1);
      w.u32(0xffffffffu);
    });
    m.push_header([](Writer& w) { w.u8(1); });
    h.net.send(h.group.node(0), h.group.node(1), std::move(m.data));
  }
  h.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(h.group.stack(1).decode_drops(), 2u);
  h.send_and_settle(2, to_bytes("after"), kSecond);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
  EXPECT_EQ(g_vsync[1]->current_view(), view);
}

TEST_F(VsyncTest, ViewBodyWithHugeCountIsADecodeError) {
  Bytes body;
  Writer w(body);
  w.u32(0xffffffffu);
  w.u32(7);
  EXPECT_THROW(decode_view_body(body), DecodeError);
}

}  // namespace
}  // namespace msw
