// SequencerLayer internals: request retransmission, history
// retransmission, garbage collection, duplicate handling, and the
// ordering-cost CPU model.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/sequencer_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

std::vector<SequencerLayer*> g_seq;

LayerFactory seq_stack(SequencerConfig cfg = {}) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<SequencerLayer>(cfg);
    g_seq.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

class SequencerInternals : public ::testing::Test {
 protected:
  void SetUp() override { g_seq.clear(); }
};

TEST_F(SequencerInternals, FirstMemberIsSequencer) {
  GroupHarness h(3, seq_stack());
  EXPECT_TRUE(g_seq[0]->is_sequencer());
  EXPECT_FALSE(g_seq[1]->is_sequencer());
  EXPECT_FALSE(g_seq[2]->is_sequencer());
}

TEST_F(SequencerInternals, OnlySequencerAssignsOrder) {
  GroupHarness h(3, seq_stack());
  for (int i = 0; i < 6; ++i) h.group.send(i % 3, to_bytes("m" + std::to_string(i)));
  h.sim.run_for(kSecond);
  EXPECT_EQ(g_seq[0]->stats().sequenced, 6u);
  EXPECT_EQ(g_seq[1]->stats().sequenced, 0u);
  EXPECT_EQ(g_seq[2]->stats().sequenced, 0u);
}

TEST_F(SequencerInternals, LostOrderRequestIsRetransmitted) {
  SequencerConfig cfg;
  cfg.request_rto = 30 * kMillisecond;
  GroupHarness h(3, seq_stack(cfg));
  // Member 1's path to the sequencer is down when it sends.
  h.net.set_link_up(h.group.node(1), h.group.node(0), false);
  h.group.send(1, to_bytes("retry me"));
  h.sim.run_for(200 * kMillisecond);
  EXPECT_EQ(h.delivered_data(0).size(), 0u);
  h.net.set_link_up(h.group.node(1), h.group.node(0), true);
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
  }
  EXPECT_GT(g_seq[1]->stats().requests_retransmitted, 0u);
}

TEST_F(SequencerInternals, DuplicateRequestResequencedExactlyOnce) {
  SequencerConfig cfg;
  cfg.request_rto = 20 * kMillisecond;
  GroupHarness h(3, seq_stack(cfg));
  // The sequencer's reply multicast toward member 1 is down: member 1 keeps
  // retransmitting its request (no implicit ack), the sequencer must not
  // sequence it twice.
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  h.group.send(1, to_bytes("once"));
  h.sim.run_for(500 * kMillisecond);
  EXPECT_EQ(g_seq[0]->stats().sequenced, 1u);
  EXPECT_GT(g_seq[0]->stats().duplicates_dropped, 0u);
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
  }
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
}

TEST_F(SequencerInternals, GapNacksRecoverLostSequencedCopies) {
  GroupHarness h(3, seq_stack(), testing::lossy_net(0.3), /*seed=*/71);
  for (int i = 0; i < 15; ++i) h.group.send(0, to_bytes("g" + std::to_string(i)));
  h.sim.run_for(20 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 15u) << "member " << p;
  }
  std::uint64_t nacks = 0;
  for (auto* l : g_seq) nacks += l->stats().gap_nacks_sent;
  EXPECT_GT(g_seq[0]->stats().history_retransmissions + nacks, 0u);
}

TEST_F(SequencerInternals, OrderingCostSerializesAtSequencer) {
  // With a 5 ms ordering cost, two simultaneous submissions must be
  // sequenced at least 5 ms apart in delivery.
  SequencerConfig cfg;
  cfg.order_cost = 5 * kMillisecond;
  GroupHarness h(3, seq_stack(cfg));
  h.group.send(1, to_bytes("first"));
  h.group.send(2, to_bytes("second"));
  std::vector<Time> arrivals;
  h.group.stack(1).set_on_deliver([&](const MsgId&, std::span<const Byte>) {
    arrivals.push_back(h.sim.now());
  });
  h.sim.run_for(2 * kSecond);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], 5 * kMillisecond);
}

TEST_F(SequencerInternals, SequencerAloneStillWorks) {
  GroupHarness h(1, seq_stack());
  h.group.send(0, to_bytes("solo"));
  h.sim.run_for(kSecond);
  EXPECT_EQ(h.delivered_data(0).size(), 1u);
  EXPECT_EQ(g_seq[0]->stats().sequenced, 1u);
}

TEST_F(SequencerInternals, FifoPerOriginPreservedThroughSequencing) {
  GroupHarness h(4, seq_stack());
  for (int i = 0; i < 12; ++i) h.group.send(1, to_bytes("f" + std::to_string(i)));
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    const auto got = h.delivered_data(p);
    ASSERT_EQ(got.size(), 12u);
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
  }
}

TEST_F(SequencerInternals, GapNackWithHugeCountIsDropped) {
  // A gap NACK (kGapNack: count) claiming 2^32 - 1 eight-byte entries and
  // carrying none, sent point-to-point to members 1 and 2. Reserving for
  // the claim would abort the process; the frames are dropped and ordering
  // goes on.
  GroupHarness h(3, seq_stack());
  for (const std::size_t dst : {1u, 2u}) {
    Message nack = Message::group({});
    nack.push_header([](Writer& w) {
      w.u8(2);
      w.u32(0xffffffffu);
    });
    h.net.send(h.group.node(0), h.group.node(dst), std::move(nack.data));
  }
  h.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
  EXPECT_EQ(h.group.stack(2).decode_drops(), 1u);
  h.send_and_settle(1, to_bytes("after"), kSecond);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
}

TEST_F(SequencerInternals, UnknownFrameTypeIsACountedDrop) {
  GroupHarness h(3, seq_stack());
  Message m = Message::group({});
  m.push_header([](Writer& w) { w.u8(9); });
  h.net.send(h.group.node(0), h.group.node(1), std::move(m.data));
  h.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
  h.send_and_settle(2, to_bytes("after"), kSecond);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
}

}  // namespace
}  // namespace msw
