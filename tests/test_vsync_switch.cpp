// VsyncSwitchLayer — the future-work switching mechanism (section 8):
// switches protocols at a virtually-synchronous view boundary, blocking
// senders during the flush, and preserves Virtual Synchrony across the
// switch (which the token-based SP cannot).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "switch/hybrid.hpp"
#include "switch/vsync_switch.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

LayerFactory vswitch() {
  return make_vsync_switch_factory(make_sequencer_factory(), make_token_factory());
}

VsyncSwitchLayer& vs(GroupHarness& h, std::size_t i) {
  return vsync_switch_layer_of(h.group.stack(i));
}

TEST(VsyncSwitch, TransparentWithoutSwitch) {
  GroupHarness h(4, vswitch());
  for (int i = 0; i < 8; ++i) h.group.send(i % 4, to_bytes("n" + std::to_string(i)));
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 8u);
    EXPECT_EQ(vs(h, p).epoch(), 0u);
  }
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST(VsyncSwitch, CoordinatedSwitchCompletes) {
  GroupHarness h(4, vswitch());
  h.sim.run_for(50 * kMillisecond);
  vs(h, 0).request_switch();
  h.sim.run_for(3 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(vs(h, p).epoch(), 1u) << "member " << p;
    EXPECT_EQ(vs(h, p).active_protocol(), 1);
    EXPECT_FALSE(vs(h, p).switching());
  }
  EXPECT_GT(vs(h, 0).stats().last_switch_duration, 0);
}

TEST(VsyncSwitch, NonCoordinatorForwardsRequest) {
  GroupHarness h(3, vswitch());
  h.sim.run_for(50 * kMillisecond);
  vs(h, 2).request_switch();  // relayed to the coordinator
  h.sim.run_for(3 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(vs(h, p).epoch(), 1u);
  }
}

TEST(VsyncSwitch, SendsAreBlockedDuringFlush) {
  GroupHarness h(3, vswitch());
  h.sim.run_for(50 * kMillisecond);
  vs(h, 0).request_switch();
  // Step in small increments until the coordinator is flushing, then send.
  bool observed_block = false;
  for (int i = 0; i < 500 && !observed_block; ++i) {
    h.sim.run_for(100);  // 0.1 ms
    for (std::size_t p = 0; p < 3; ++p) {
      if (vs(h, p).switching()) {
        h.group.send(p, to_bytes("blocked"));
        observed_block = vs(h, p).blocked_sends() > 0;
        break;
      }
    }
  }
  EXPECT_TRUE(observed_block) << "send was not queued during the flush";
  h.sim.run_for(3 * kSecond);
  // The queued message flows in the new epoch.
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u);
    EXPECT_EQ(vs(h, p).blocked_sends(), 0u);
  }
}

TEST(VsyncSwitch, VirtualSynchronyHeldAcrossSwitch) {
  GroupHarness h(4, vswitch());
  for (int k = 0; k < 30; ++k) {
    h.sim.scheduler().at(k * 5 * kMillisecond,
                         [&, k] { h.group.send(k % 4, to_bytes("v" + std::to_string(k))); });
  }
  h.sim.scheduler().at(70 * kMillisecond, [&] { vs(h, 0).request_switch(); });
  h.sim.run_for(10 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 30u) << "member " << p;
  }
  // The headline: the app trace is virtually synchronous across the
  // protocol switch — every member agrees which messages fell in epoch 0
  // vs epoch 1.
  EXPECT_TRUE(VirtualSynchronyProperty().holds(h.group.trace()));
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST(VsyncSwitch, ViewMarkersDeliveredAtEveryEpoch) {
  GroupHarness h(3, vswitch());
  h.sim.run_for(50 * kMillisecond);
  vs(h, 0).request_switch();
  h.sim.run_for(3 * kSecond);
  vs(h, 0).request_switch();
  h.sim.run_for(3 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    std::vector<std::uint64_t> markers;
    for (const auto& e : h.group.trace()) {
      if (e.is_deliver() && e.process == h.group.node(p).v && e.is_view_marker()) {
        markers.push_back(e.msg.seq);
      }
    }
    EXPECT_EQ(markers, (std::vector<std::uint64_t>{0, 1, 2})) << "member " << p;
  }
}

TEST(VsyncSwitch, CompletesUnderLoss) {
  GroupHarness h(3, vswitch(), testing::lossy_net(0.15), /*seed=*/17);
  for (int k = 0; k < 12; ++k) {
    h.sim.scheduler().at(k * 10 * kMillisecond,
                         [&, k] { h.group.send(k % 3, to_bytes("l" + std::to_string(k))); });
  }
  h.sim.scheduler().at(60 * kMillisecond, [&] { vs(h, 0).request_switch(); });
  h.sim.run_for(30 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(vs(h, p).epoch(), 1u) << "member " << p;
    EXPECT_EQ(h.delivered_data(p).size(), 12u) << "member " << p;
  }
  EXPECT_TRUE(VirtualSynchronyProperty().holds(h.group.trace()));
}

TEST(VsyncSwitch, BackToBackSwitchesSerialize) {
  GroupHarness h(3, vswitch());
  h.sim.run_for(50 * kMillisecond);
  vs(h, 0).request_switch();
  vs(h, 0).request_switch();  // ignored: one switch at a time
  h.sim.run_for(3 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(vs(h, p).epoch(), 1u);
  }
  vs(h, 0).request_switch();
  h.sim.run_for(3 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(vs(h, p).epoch(), 2u);
    EXPECT_EQ(vs(h, p).active_protocol(), 0);
  }
}

TEST(VsyncSwitch, MalformedFramesAreCountedDrops) {
  // An unknown mux channel, a control frame of an undefined type, then two
  // sequencer frames (kSequenced: gseq, origin, oseq) on protocol A's
  // channel: one with a data type the layer does not define, one whose
  // epoch parity names the token protocol. None reaches the application;
  // all four count in decode_drops.
  GroupHarness h(3, vswitch());
  const auto forge = [](std::uint16_t channel, std::uint64_t gseq, auto&& header) {
    Message m = Message::group(to_bytes("forged"));
    AppHeader::push(m, AppHeader{AppHeader::Kind::kData, 2, 77});
    m.push_header(header);
    m.push_header([gseq](Writer& w) {
      w.u8(1);
      w.u64(gseq);
      w.u32(0);
      w.u64(gseq);
    });
    Mux::push(m, channel);
    return std::move(m.data);
  };
  const auto unknown_type = [](Writer& w) { w.u8(7); };
  h.net.send(h.group.node(0), h.group.node(1), forge(9, 0, unknown_type));
  Message ctl = Message::group({});
  ctl.push_header([](Writer& w) { w.u8(9); });
  Mux::push(ctl, 2);
  h.net.send(h.group.node(0), h.group.node(1), std::move(ctl.data));
  h.net.send(h.group.node(0), h.group.node(1), forge(0, 0, unknown_type));
  h.net.send(h.group.node(0), h.group.node(1), forge(0, 1, [](Writer& w) {
               w.u8(0);
               w.u64(1);  // odd epoch: the token protocol's
               w.u32(2);
               w.u64(0);
             }));
  h.sim.run_for(100 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(1).empty());
  EXPECT_EQ(vs(h, 1).stats().decode_drops, 4u);
}

}  // namespace
}  // namespace msw
