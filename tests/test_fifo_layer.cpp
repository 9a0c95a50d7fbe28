// FifoLayer: per-sender ordering, gap buffering, duplicate suppression.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/fifo_layer.hpp"
#include "proto/reliable_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

LayerFactory fifo_only() {
  return [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<FifoLayer>());
    return layers;
  };
}

TEST(FifoLayer, PerSenderOrderOnIdealNet) {
  GroupHarness h(3, fifo_only());
  for (int i = 0; i < 10; ++i) h.group.send(0, to_bytes("m" + std::to_string(i)));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto got = h.delivered_data(p);
    ASSERT_EQ(got.size(), 10u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, i) << "member " << p;
    }
  }
}

TEST(FifoLayer, InterleavedSendersEachFifo) {
  GroupHarness h(4, fifo_only());
  for (int i = 0; i < 6; ++i) {
    h.group.send(0, to_bytes("a"));
    h.group.send(1, to_bytes("b"));
  }
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    std::uint64_t next0 = 0, next1 = 0;
    for (const auto& id : h.delivered_data(p)) {
      if (id.sender == h.group.node(0).v) {
        EXPECT_EQ(id.seq, next0++);
      }
      if (id.sender == h.group.node(1).v) {
        EXPECT_EQ(id.seq, next1++);
      }
    }
    EXPECT_EQ(next0, 6u);
    EXPECT_EQ(next1, 6u);
  }
}

TEST(FifoLayer, UnknownFrameTypeIsACountedDrop) {
  // A one-byte FIFO header of a type the layer does not define, under a
  // well-formed application header, reaches member 1 ahead of member 0's
  // real first message. It is a counted drop: it is not delivered (it
  // would read as origin 0, seq 0), so it cannot shadow the real message
  // as a duplicate either.
  GroupHarness h(3, fifo_only());
  Message forged = Message::group(to_bytes("forged"));
  AppHeader::push(forged, AppHeader{AppHeader::Kind::kData, 2, 77});
  forged.push_header([](Writer& w) { w.u8(9); });
  h.net.send(h.group.node(0), h.group.node(1), std::move(forged.data));
  h.sim.run_for(10 * kMillisecond);
  h.send_and_settle(0, to_bytes("real"), kSecond);
  const auto got = h.delivered_data(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].sender, h.group.node(0).v);
  EXPECT_EQ(got[0].seq, 0u);
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
}

// Drive a FifoLayer directly to exercise reordering paths precisely.
class DirectFifo : public ::testing::Test {
 protected:
  DirectFifo() {
    // A bare-bones Services for direct layer driving.
    sim_ = std::make_unique<Simulation>(1);
    net_ = std::make_unique<Network>(sim_->scheduler(), sim_->fork_rng(), testing::ideal_net());
    const NodeId self = net_->add_node();
    const NodeId peer = net_->add_node();
    stack_ = std::make_unique<Stack>(*net_, self, std::vector<NodeId>{self, peer},
                                     make_layers(), sim_->fork_rng());
  }

  std::vector<std::unique_ptr<Layer>> make_layers() {
    auto fifo = std::make_unique<FifoLayer>();
    fifo_ = fifo.get();
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(fifo));
    return layers;
  }

  /// Build the wire form of a data message from `origin` with `seq`.
  static Message data_msg(std::uint32_t origin, std::uint64_t seq) {
    Message m = Message::group(to_bytes("payload"));
    m.push_header([&](Writer& w) {
      w.u8(0);  // Type::kData
      w.u32(origin);
      w.u64(seq);
    });
    return m;
  }

  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Stack> stack_;
  FifoLayer* fifo_ = nullptr;
};

TEST_F(DirectFifo, BuffersGapThenDrains) {
  std::vector<Bytes> delivered;
  int count = 0;
  // Intercept deliveries above the layer by replacing the up route: we
  // drive the layer directly below the stack's app boundary, so deliveries
  // land in the stack app callback only if the app header exists. Instead,
  // count via the layer's buffered() accessor and a custom sink.
  fifo_->up(data_msg(9, 1));
  EXPECT_EQ(fifo_->buffered(), 1u);  // seq 1 waits for seq 0
  fifo_->up(data_msg(9, 2));
  EXPECT_EQ(fifo_->buffered(), 2u);
  fifo_->up(data_msg(9, 0));
  EXPECT_EQ(fifo_->buffered(), 0u);  // drained 0,1,2
  (void)delivered;
  (void)count;
}

TEST_F(DirectFifo, DuplicateOfDeliveredDropped) {
  fifo_->up(data_msg(9, 0));
  fifo_->up(data_msg(9, 0));  // duplicate: silently dropped
  EXPECT_EQ(fifo_->buffered(), 0u);
}

TEST_F(DirectFifo, DuplicateOfBufferedNotDoubled) {
  fifo_->up(data_msg(9, 3));
  fifo_->up(data_msg(9, 3));
  EXPECT_EQ(fifo_->buffered(), 1u);
}

TEST_F(DirectFifo, IndependentOrigins) {
  fifo_->up(data_msg(7, 1));
  fifo_->up(data_msg(8, 1));
  EXPECT_EQ(fifo_->buffered(), 2u);
  fifo_->up(data_msg(7, 0));
  EXPECT_EQ(fifo_->buffered(), 1u);  // origin 8 still gapped
}

TEST(FifoOverReliable, OrderedUnderLoss) {
  GroupHarness h(3,
                 [](NodeId, const std::vector<NodeId>&) {
                   std::vector<std::unique_ptr<Layer>> layers;
                   layers.push_back(std::make_unique<FifoLayer>());
                   layers.push_back(std::make_unique<ReliableLayer>());
                   return layers;
                 },
                 testing::lossy_net(0.2), /*seed=*/11);
  for (int i = 0; i < 15; ++i) h.group.send(0, to_bytes("x" + std::to_string(i)));
  h.sim.run_for(15 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto got = h.delivered_data(p);
    ASSERT_EQ(got.size(), 15u) << "member " << p;
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
  }
}

}  // namespace
}  // namespace msw
