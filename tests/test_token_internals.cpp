// TokenLayer internals: token circulation, handoff retransmission, batch
// limits, stability-based garbage collection, and latency structure.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/token_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

std::vector<TokenLayer*> g_tok;

LayerFactory tok_stack(TokenConfig cfg = {}) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<TokenLayer>(cfg);
    g_tok.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(l));
    return layers;
  };
}

class TokenInternals : public ::testing::Test {
 protected:
  void SetUp() override { g_tok.clear(); }
};

TEST_F(TokenInternals, TokenVisitsEveryMemberRepeatedly) {
  GroupHarness h(4, tok_stack());
  h.sim.run_for(kSecond);
  for (auto* l : g_tok) {
    EXPECT_GT(l->stats().token_visits, 10u);
  }
}

TEST_F(TokenInternals, SendWaitsForToken) {
  // A message queues locally until the token arrives.
  GroupHarness h(4, tok_stack());
  h.group.send(2, to_bytes("queued"));
  EXPECT_EQ(g_tok[2]->queued(), 1u);
  h.sim.run_for(kSecond);
  EXPECT_EQ(g_tok[2]->queued(), 0u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u);
  }
}

TEST_F(TokenInternals, HandoffRetransmittedAcrossLossyRingEdge) {
  GroupHarness h(3, tok_stack(), testing::lossy_net(0.3), /*seed=*/53);
  h.sim.run_for(3 * kSecond);
  std::uint64_t retx = 0, visits = 0;
  for (auto* l : g_tok) {
    retx += l->stats().token_retransmissions;
    visits += l->stats().token_visits;
  }
  EXPECT_GT(retx, 0u) << "30% loss must hit some handoff";
  EXPECT_GT(visits, 30u) << "the ring must keep turning regardless";
}

TEST_F(TokenInternals, BatchLimitSpreadsBurstOverVisits) {
  TokenConfig cfg;
  cfg.batch_limit = 2;
  GroupHarness h(3, tok_stack(cfg));
  for (int i = 0; i < 7; ++i) h.group.send(1, to_bytes("b" + std::to_string(i)));
  h.sim.run_for(2 * kSecond);
  // All 7 delivered, in order, despite only 2 per token visit.
  for (std::size_t p = 0; p < 3; ++p) {
    const auto got = h.delivered_data(p);
    ASSERT_EQ(got.size(), 7u);
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i);
  }
}

TEST_F(TokenInternals, HistoryGarbageCollectedViaTokenWatermark) {
  GroupHarness h(3, tok_stack());
  for (int i = 0; i < 10; ++i) h.group.send(0, to_bytes("w" + std::to_string(i)));
  // Enough rotations for everyone's delivered watermark to circulate.
  h.sim.run_for(3 * kSecond);
  // The sender's history should be empty once all members' watermarks pass.
  // (No public accessor for history size; use retransmission behaviour:
  // a NACK for an old gseq after GC cannot be served. Indirect check:
  // stability implies no gaps anywhere.)
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 10u);
  }
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST_F(TokenInternals, LatencyScalesWithRingSize) {
  // Average wait for the token grows with the ring: a 12-member ring must
  // show higher single-sender latency than a 3-member ring.
  auto run = [](std::size_t n) {
    g_tok.clear();
    GroupHarness h(n, tok_stack(), testing::era_net(), /*seed=*/5);
    Summary lat;
    Time sent_at = 0;
    h.group.stack(1).set_on_deliver(
        [&](const MsgId&, std::span<const Byte>) { lat.add(to_ms(h.sim.now() - sent_at)); });
    for (int i = 0; i < 20; ++i) {
      h.sim.scheduler().at(i * 100 * kMillisecond, [&h, &sent_at] {
        sent_at = h.sim.now();
        h.group.send(1, to_bytes("x"));
      });
    }
    h.sim.run_for(5 * kSecond);
    return lat.mean();
  };
  const double small_ring = run(3);
  const double large_ring = run(12);
  EXPECT_GT(large_ring, small_ring * 1.5);
}

TEST_F(TokenInternals, IdleHoldSlowsRotation) {
  // The idle ring turns in ~3 ms on 1 ms hops, longer than the default
  // pacing period, so it is never held; a 10 ms period holds it.
  TokenConfig fast;
  TokenConfig slow;
  slow.idle_period = 10 * kMillisecond;
  g_tok.clear();
  GroupHarness h1(3, tok_stack(fast));
  h1.sim.run_for(kSecond);
  const auto fast_visits = g_tok[0]->stats().token_visits;
  g_tok.clear();
  GroupHarness h2(3, tok_stack(slow));
  h2.sim.run_for(kSecond);
  const auto slow_visits = g_tok[0]->stats().token_visits;
  EXPECT_LT(slow_visits * 2, fast_visits);
}

TEST_F(TokenInternals, MulticastNackServedByOriginHistory) {
  GroupHarness h(3, tok_stack());
  // Cut the data path 0 -> 2, so member 2 misses member 0's multicast and
  // must NACK; member 0's history serves it once the link heals.
  h.net.set_link_up(h.group.node(0), h.group.node(2), false);
  h.group.send(0, to_bytes("lost data"));
  h.sim.run_for(300 * kMillisecond);
  h.net.set_link_up(h.group.node(0), h.group.node(2), true);
  h.sim.run_for(3 * kSecond);
  EXPECT_EQ(h.delivered_data(2).size(), 1u);
  EXPECT_GT(g_tok[0]->stats().history_retransmissions, 0u);
}

TEST_F(TokenInternals, FrameWithHugeCountIsDropped) {
  // A token (kToken: serial, next gseq, delivered count) and a NACK (kNack:
  // count), each claiming 2^32 - 1 eight-byte entries and carrying none.
  // Reserving for the claim would abort the process; the frames are
  // dropped and the ring is unharmed.
  GroupHarness h(3, tok_stack());
  h.sim.run_for(10 * kMillisecond);
  Message token = Message::group({});
  token.push_header([](Writer& w) {
    w.u8(1);
    w.u64(1'000'000);
    w.u64(0);
    w.u32(0xffffffffu);
  });
  h.net.send(h.group.node(0), h.group.node(1), std::move(token.data));
  Message nack = Message::group({});
  nack.push_header([](Writer& w) {
    w.u8(3);
    w.u32(0xffffffffu);
  });
  h.net.send(h.group.node(0), h.group.node(2), std::move(nack.data));
  h.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
  EXPECT_EQ(h.group.stack(2).decode_drops(), 1u);
  h.send_and_settle(1, to_bytes("after"), kSecond);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
}

TEST_F(TokenInternals, UnknownFrameTypeIsACountedDrop) {
  GroupHarness h(3, tok_stack());
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
