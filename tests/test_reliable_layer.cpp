// ReliableLayer: delivery under loss, NACK/retransmission behaviour,
// heartbeat-driven tail recovery, ack-driven garbage collection.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/reliable_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

std::vector<ReliableLayer*> g_layers;

LayerFactory reliable_only(ReliableConfig cfg = {}) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    auto layer = std::make_unique<ReliableLayer>(cfg);
    g_layers.push_back(layer.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(layer));
    return layers;
  };
}

class ReliableTest : public ::testing::Test {
 protected:
  void SetUp() override { g_layers.clear(); }
};

TEST_F(ReliableTest, NoLossNoControlOverheadBeyondTimers) {
  GroupHarness h(3, reliable_only());
  for (int i = 0; i < 5; ++i) h.group.send(0, to_bytes("m"));
  h.sim.run_for(2 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 5u);
  }
  for (ReliableLayer* l : g_layers) {
    EXPECT_EQ(l->stats().nacks_sent, 0u);
    EXPECT_EQ(l->stats().retransmissions, 0u);
  }
}

TEST_F(ReliableTest, AllDeliveredUnderModerateLoss) {
  GroupHarness h(4, reliable_only(), testing::lossy_net(0.15), /*seed=*/21);
  for (std::size_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 8; ++i) {
      h.sim.scheduler().at((i * 4 + s) * 9 * kMillisecond,
                           [&, s] { h.group.send(s, to_bytes("z")); });
    }
  }
  h.sim.run_for(15 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 32u) << "member " << p;
  }
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < 4; ++i) ids.push_back(h.group.node(i).v);
  EXPECT_TRUE(ReliabilityProperty(ids).holds(h.group.trace()));
}

TEST_F(ReliableTest, LossTriggersNacksAndRetransmissions) {
  GroupHarness h(3, reliable_only(), testing::lossy_net(0.3), /*seed=*/5);
  for (int i = 0; i < 20; ++i) h.group.send(0, to_bytes("r" + std::to_string(i)));
  h.sim.run_for(20 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 20u);
  }
  std::uint64_t nacks = 0, retx = 0;
  for (ReliableLayer* l : g_layers) {
    nacks += l->stats().nacks_sent;
    retx += l->stats().retransmissions;
  }
  EXPECT_GT(nacks, 0u);
  EXPECT_GT(retx, 0u);
}

TEST_F(ReliableTest, TailLossRecoveredViaHeartbeat) {
  // Lose ONLY the final message's copies: no later data exposes the gap,
  // so recovery must come from the heartbeat.
  GroupHarness h(3, reliable_only());
  for (int i = 0; i < 3; ++i) h.group.send(0, to_bytes("ok" + std::to_string(i)));
  h.sim.run_for(kSecond);
  // Cut links, send the tail message, restore links after it is lost.
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  h.net.set_link_up(h.group.node(0), h.group.node(2), false);
  h.group.send(0, to_bytes("tail"));
  h.sim.run_for(100 * kMillisecond);
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.net.set_link_up(h.group.node(0), h.group.node(2), true);
  h.sim.run_for(5 * kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 4u) << "member " << p;
  }
}

TEST_F(ReliableTest, NoDuplicateDeliveries) {
  GroupHarness h(3, reliable_only(), testing::lossy_net(0.25), /*seed=*/9);
  for (int i = 0; i < 10; ++i) h.group.send(1, to_bytes("d" + std::to_string(i)));
  h.sim.run_for(15 * kSecond);
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 10u);
  }
}

TEST_F(ReliableTest, GarbageCollectionShrinksBuffer) {
  ReliableConfig cfg;
  cfg.ack_interval = 50 * kMillisecond;
  GroupHarness h(3, reliable_only(cfg));
  for (int i = 0; i < 10; ++i) h.group.send(0, to_bytes("gc"));
  h.sim.run_for(2 * kSecond);
  // After everyone acked, the sender's retransmission buffer is empty.
  EXPECT_EQ(g_layers[0]->stats().buffered_copies, 0u);
}

TEST_F(ReliableTest, BufferRetainedUntilAllAck) {
  ReliableConfig cfg;
  cfg.ack_interval = 50 * kMillisecond;
  GroupHarness h(3, reliable_only(cfg));
  // Partition member 2 so it cannot ack.
  h.net.set_link_up(h.group.node(2), h.group.node(0), false);
  for (int i = 0; i < 4; ++i) h.group.send(0, to_bytes("hold"));
  h.sim.run_for(2 * kSecond);
  EXPECT_EQ(g_layers[0]->stats().buffered_copies, 4u);
  h.net.set_link_up(h.group.node(2), h.group.node(0), true);
  h.sim.run_for(5 * kSecond);
  EXPECT_EQ(g_layers[0]->stats().buffered_copies, 0u);
}

TEST_F(ReliableTest, CrashedMemberDoesNotStallGarbageCollection) {
  // Member 2 crashes permanently (all links cut, both directions). The
  // sender keeps multicasting; once member 2 has been silent past the
  // eviction horizon it stops counting toward the GC quorum, so the
  // retransmission buffer drains instead of growing one copy per send.
  ReliableConfig cfg;
  cfg.ack_interval = 50 * kMillisecond;
  cfg.eviction_horizon = 2 * kSecond;
  GroupHarness h(3, reliable_only(cfg));
  for (std::size_t a = 0; a < 3; ++a) {
    if (a == 2) continue;
    h.net.set_link_up(h.group.node(a), h.group.node(2), false);
    h.net.set_link_up(h.group.node(2), h.group.node(a), false);
  }
  // Steady traffic for 12 s: far more sends than fit any "still waiting for
  // the horizon" window.
  for (int i = 0; i < 120; ++i) {
    h.sim.scheduler().at(i * 100 * kMillisecond, [&] { h.group.send(0, to_bytes("s")); });
  }
  h.sim.run_for(14 * kSecond);
  // Without eviction all 120 copies would be pinned; with it the buffer
  // holds at most the few sends not yet acked by the live members.
  EXPECT_LE(g_layers[0]->stats().buffered_copies, 8u);
  EXPECT_GT(g_layers[0]->stats().members_evicted, 0u);
  // The live members still converged.
  EXPECT_EQ(h.delivered_data(1).size(), 120u);
}

TEST_F(ReliableTest, EvictionIsCountedLossAndReturningMemberResumes) {
  // Eviction is deliberate, counted loss-of-retransmittability: once a
  // crashed member's absence let GC collect the copies, a late return
  // cannot recover them — but new traffic flows to it normally and the
  // group does not wedge or crash on its stale NACKs.
  ReliableConfig cfg;
  cfg.ack_interval = 50 * kMillisecond;
  cfg.eviction_horizon = 2 * kSecond;
  GroupHarness h(3, reliable_only(cfg));
  h.net.set_link_up(h.group.node(0), h.group.node(2), false);
  h.net.set_link_up(h.group.node(2), h.group.node(0), false);
  for (int i = 0; i < 6; ++i) h.group.send(0, to_bytes("back" + std::to_string(i)));
  h.sim.run_for(4 * kSecond);  // member 2 evicted; copies GC'd on member 1's acks
  EXPECT_GT(g_layers[0]->stats().members_evicted, 0u);
  EXPECT_EQ(h.delivered_data(2).size(), 0u);
  EXPECT_EQ(g_layers[0]->stats().buffered_copies, 0u);
  h.net.set_link_up(h.group.node(0), h.group.node(2), true);
  h.net.set_link_up(h.group.node(2), h.group.node(0), true);
  h.group.send(0, to_bytes("resume"));
  h.sim.run_for(6 * kSecond);
  // The old six are gone for member 2 (counted loss); the new message
  // arrives, and nothing deadlocks despite its NACKs for collected seqs.
  EXPECT_EQ(h.delivered_data(2).size(), 1u);
  // Member 2 counts for GC again, and its contiguous ack is stuck at 0
  // (the collected gap is unfillable), so exactly the resume copy stays
  // buffered — back-pressure works, but bounded by the live traffic.
  EXPECT_EQ(g_layers[0]->stats().buffered_copies, 1u);
}

TEST_F(ReliableTest, FirstMessageAfterIdlePeriodSurvivesLoss) {
  // A fully idle group exchanges no frames (no data -> no heartbeats, and
  // the p2p ack path has no origins to ack), so past the eviction horizon
  // every healthy member evicts every other. The first multicast after the
  // quiet period must NOT face an empty GC quorum: here its only copy
  // toward member 1 is lost on the wire, and recovery via heartbeat + NACK
  // takes far longer than the sender's next ack tick. If eviction were not
  // reversed at burst start, the sender would GC the copy immediately and
  // the message would be silently unrecoverable.
  ReliableConfig cfg;
  cfg.eviction_horizon = 2 * kSecond;
  GroupHarness h(3, reliable_only(cfg));
  h.sim.run_for(5 * kSecond);  // idle well past the horizon
  EXPECT_GT(g_layers[0]->stats().members_evicted, 0u);
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  h.group.send(0, to_bytes("after-idle"));
  h.sim.run_for(500 * kMillisecond);  // many ack ticks: GC had every chance
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.sim.run_for(5 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 1u);
  EXPECT_EQ(h.delivered_data(2).size(), 1u);
}

TEST_F(ReliableTest, SentBufferCapEvictsOldest) {
  // With eviction disabled and a partitioned member, the hard cap is the
  // back-stop: the buffer never exceeds max_sent_buffer and evictions are
  // counted.
  ReliableConfig cfg;
  cfg.ack_interval = 50 * kMillisecond;
  cfg.eviction_horizon = 0;  // quorum never shrinks
  cfg.max_sent_buffer = 16;
  GroupHarness h(3, reliable_only(cfg));
  h.net.set_link_up(h.group.node(2), h.group.node(0), false);  // member 2 can't ack
  for (int i = 0; i < 40; ++i) h.group.send(0, to_bytes("cap"));
  h.sim.run_for(3 * kSecond);
  EXPECT_LE(g_layers[0]->stats().buffered_copies, 16u);
  EXPECT_GE(g_layers[0]->stats().buffer_evictions, 24u);
}

TEST_F(ReliableTest, RangeEncodingBeatsLegacyOnWideGaps) {
  // A one-way outage opens a 60-sequence gap at member 1, which then NACKs
  // it. The retired per-sequence encoding spent one u64 per missing
  // sequence (480 bytes of entries here); the range encoding must stay
  // under a quarter of that.
  constexpr std::uint64_t kMissing = 60;
  GroupHarness h(3, reliable_only());
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  for (std::uint64_t i = 0; i < kMissing; ++i) h.group.send(0, to_bytes("w"));
  h.sim.run_for(kSecond);
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.sim.run_for(5 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), kMissing);
  const std::uint64_t nack_bytes = g_layers[1]->stats().nack_bytes_sent;
  EXPECT_GT(nack_bytes, 0u);
  EXPECT_LT(nack_bytes, kMissing * 8 / 4);
}

TEST_F(ReliableTest, FirstBatchAfterIdlePeriodSurvivesLossBatched) {
  // The post-idle eviction re-admission fix, exercised through send_batch:
  // after an idle period every healthy member is provisionally evicted; the
  // first run of multicasts afterwards must re-admit them before GC can
  // collect the burst's copies, exactly like a single send.
  ReliableConfig cfg;
  cfg.eviction_horizon = 2 * kSecond;
  GroupHarness h(3, reliable_only(cfg));
  h.sim.run_for(5 * kSecond);  // idle well past the horizon
  EXPECT_GT(g_layers[0]->stats().members_evicted, 0u);
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  std::vector<Bytes> burst;
  for (int i = 0; i < 4; ++i) burst.push_back(to_bytes("b" + std::to_string(i)));
  h.group.send_batch(0, std::move(burst));
  h.sim.run_for(500 * kMillisecond);  // many ack ticks: GC had every chance
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.sim.run_for(5 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 4u);
  EXPECT_EQ(h.delivered_data(2).size(), 4u);
}

TEST_F(ReliableTest, OversizedAckVectorSplitsAcrossFramesBatched) {
  // The ack-vector frame split with send_batch traffic: with the per-frame
  // entry cap lowered below the origin count, one ack tick must emit
  // several frames whose union is the same vector — receivers merge by
  // monotone max, so delivery and GC behave identically to the uncapped
  // run, just with more frames on the wire.
  const auto run = [](std::size_t cap) {
    g_layers.clear();
    ReliableConfig cfg;
    cfg.peer_assist = true;
    cfg.ack_interval = 50 * kMillisecond;
    cfg.max_ack_entries_per_frame = cap;
    GroupHarness h(6, reliable_only(cfg), testing::lossy_net(0.1), /*seed=*/31);
    for (std::size_t s = 0; s < 6; ++s) {
      std::vector<Bytes> burst;
      for (int i = 0; i < 5; ++i) burst.push_back(to_bytes("s" + std::to_string(i)));
      h.group.send_batch(s, std::move(burst));
    }
    h.sim.run_for(15 * kSecond);
    std::uint64_t frames = 0, entries = 0, buffered = 0;
    for (std::size_t p = 0; p < 6; ++p) {
      EXPECT_EQ(h.delivered_data(p).size(), 30u) << "cap " << cap << " member " << p;
      frames += g_layers[p]->stats().ack_frames_sent;
      entries += g_layers[p]->stats().ack_entries_sent;
      buffered += g_layers[p]->stats().buffered_copies;
    }
    EXPECT_EQ(buffered, 0u) << "stability (GC) must still converge with cap " << cap;
    return std::make_pair(frames, entries);
  };
  const auto [split_frames, split_entries] = run(2);
  const auto [whole_frames, whole_entries] = run(0);
  // Capped at 2 entries, a 6-origin full snapshot needs 3 frames instead
  // of 1, so the capped run pays measurably more frames per entry. (Exact
  // entry equality is not asserted: extra control frames perturb network
  // timing, which can shift what the delta ticks include.)
  EXPECT_GT(split_entries, 0u);
  EXPECT_GT(whole_entries, 0u);
  EXPECT_GT(split_frames * whole_entries, whole_frames * split_entries);
}

TEST_F(ReliableTest, AsymmetricPartitionHealed) {
  GroupHarness h(3, reliable_only());
  // Member 1 misses everything from 0 for a while (one-way outage).
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  for (int i = 0; i < 6; ++i) h.group.send(0, to_bytes("p" + std::to_string(i)));
  h.sim.run_for(kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 0u);
  h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  h.sim.run_for(5 * kSecond);
  EXPECT_EQ(h.delivered_data(1).size(), 6u);
}

}  // namespace
}  // namespace msw
