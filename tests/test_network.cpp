// Simulated LAN: latency model, multicast fan-out, loss, partitions,
// CPU queueing (the sequencer-bottleneck mechanism), and its timers as a
// Transport.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace msw {
namespace {

struct Fixture {
  explicit Fixture(NetConfig cfg = {}, std::uint64_t seed = 1)
      : sim(seed), net(sim.scheduler(), sim.fork_rng(), cfg) {}

  Simulation sim;
  Network net;
};

NetConfig fast_config() {
  NetConfig cfg;
  cfg.base_latency = 1 * kMillisecond;
  cfg.jitter = 0;
  cfg.cpu_send = 0;
  cfg.cpu_recv = 0;
  cfg.bandwidth_bps = 0;  // no serialization delay
  cfg.wire_overhead_bytes = 0;
  return cfg;
}

TEST(Network, UnicastArrivesAfterBaseLatency) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  Time arrival = -1;
  f.net.set_handler(b, [&](Packet p) {
    arrival = f.sim.now();
    EXPECT_EQ(p.src, a);
  });
  f.net.send(a, b, to_bytes("hi"));
  f.sim.run();
  EXPECT_EQ(arrival, 1 * kMillisecond);
}

TEST(Network, PayloadIntact) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  Bytes got;
  f.net.set_handler(b, [&](Packet p) { got = p.data.bytes(); });
  f.net.send(a, b, to_bytes("payload-123"));
  f.sim.run();
  EXPECT_EQ(got, to_bytes("payload-123"));
}

TEST(Network, MulticastReachesAllIncludingSelf) {
  Fixture f(fast_config());
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(f.net.add_node());
  std::vector<int> got(5, 0);
  for (int i = 0; i < 5; ++i) {
    f.net.set_handler(nodes[i], [&, i](Packet) { ++got[i]; });
  }
  f.net.multicast(nodes[0], nodes, to_bytes("m"));
  f.sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 1, 1, 1, 1}));
}

TEST(Network, LoopbackFasterThanWire) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  Time self_at = -1, peer_at = -1;
  f.net.set_handler(a, [&](Packet) { self_at = f.sim.now(); });
  f.net.set_handler(b, [&](Packet) { peer_at = f.sim.now(); });
  f.net.multicast(a, {a, b}, to_bytes("m"));
  f.sim.run();
  EXPECT_GE(self_at, 0);
  EXPECT_LT(self_at, peer_at);
}

TEST(Network, SerializationDelayScalesWithSize) {
  NetConfig cfg = fast_config();
  cfg.bandwidth_bps = 8'000'000;  // 1 byte per microsecond
  Fixture f(cfg);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  Time arrival = -1;
  f.net.set_handler(b, [&](Packet) { arrival = f.sim.now(); });
  f.net.send(a, b, Bytes(1000, 0));  // 1000 us serialization
  f.sim.run();
  EXPECT_EQ(arrival, 1000 + 1 * kMillisecond);
}

TEST(Network, CpuCostQueuesAtReceiver) {
  NetConfig cfg = fast_config();
  cfg.cpu_recv = 500;  // 0.5 ms per packet
  Fixture f(cfg);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  const NodeId c = f.net.add_node();
  std::vector<Time> arrivals;
  f.net.set_handler(c, [&](Packet) { arrivals.push_back(f.sim.now()); });
  // Two packets arrive simultaneously; the receiver works them off serially.
  f.net.send(a, c, to_bytes("1"));
  f.net.send(b, c, to_bytes("2"));
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 500);
}

TEST(Network, CpuCostQueuesAtSender) {
  NetConfig cfg = fast_config();
  cfg.cpu_send = 1000;
  Fixture f(cfg);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  std::vector<Time> arrivals;
  f.net.set_handler(b, [&](Packet) { arrivals.push_back(f.sim.now()); });
  f.net.send(a, b, to_bytes("1"));
  f.net.send(a, b, to_bytes("2"));
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second send waits for the first's CPU slot.
  EXPECT_EQ(arrivals[1] - arrivals[0], 1000);
}

TEST(Network, LossDropsApproximatelyAtRate) {
  NetConfig cfg = fast_config();
  cfg.loss = 0.3;
  Fixture f(cfg, 5);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int got = 0;
  f.net.set_handler(b, [&](Packet) { ++got; });
  for (int i = 0; i < 1000; ++i) f.net.send(a, b, to_bytes("x"));
  f.sim.run();
  EXPECT_NEAR(got, 700, 60);
  EXPECT_EQ(f.net.stats().copies_dropped_loss + got, 1000u);
}

TEST(Network, LoopbackNeverDropped) {
  NetConfig cfg = fast_config();
  cfg.loss = 1.0;
  Fixture f(cfg);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int self_got = 0, peer_got = 0;
  f.net.set_handler(a, [&](Packet) { ++self_got; });
  f.net.set_handler(b, [&](Packet) { ++peer_got; });
  f.net.multicast(a, {a, b}, to_bytes("m"));
  f.sim.run();
  EXPECT_EQ(self_got, 1);
  EXPECT_EQ(peer_got, 0);
}

TEST(Network, LinkDownBlocksDirectionally) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int a_got = 0, b_got = 0;
  f.net.set_handler(a, [&](Packet) { ++a_got; });
  f.net.set_handler(b, [&](Packet) { ++b_got; });
  f.net.set_link_up(a, b, false);
  f.net.send(a, b, to_bytes("x"));  // blocked
  f.net.send(b, a, to_bytes("y"));  // open
  f.sim.run();
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(a_got, 1);
  f.net.set_link_up(a, b, true);
  f.net.send(a, b, to_bytes("x"));
  f.sim.run();
  EXPECT_EQ(b_got, 1);
}

TEST(Network, CrashedNodeNeitherSendsNorReceives) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int b_got = 0;
  f.net.set_handler(b, [&](Packet) { ++b_got; });
  f.net.set_node_up(b, false);
  f.net.send(a, b, to_bytes("x"));
  f.sim.run();
  EXPECT_EQ(b_got, 0);
  f.net.set_node_up(b, true);
  f.net.set_node_up(a, false);
  f.net.send(a, b, to_bytes("x"));
  f.sim.run();
  EXPECT_EQ(b_got, 0);
}

TEST(Network, StatsCountTraffic) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.set_handler(a, [](Packet) {});
  f.net.set_handler(b, [](Packet) {});
  f.net.send(a, b, to_bytes("x"));
  f.net.multicast(a, {a, b}, to_bytes("y"));
  f.sim.run();
  EXPECT_EQ(f.net.stats().unicasts_sent, 1u);
  EXPECT_EQ(f.net.stats().multicasts_sent, 1u);
  EXPECT_EQ(f.net.stats().copies_delivered, 3u);
}

TEST(Network, StaleTimerTokenCancelsNothing) {
  // A fired timer's token names a scheduler slot that the next timer
  // reuses; the generation in the token keeps the stale cancel from
  // hitting the newcomer.
  Fixture f(fast_config());
  Transport& tr = f.net;
  const NodeId a = tr.add_node();
  int first = 0;
  int second = 0;
  const TransportTimer stale = tr.set_timer(a, 100, [&] { ++first; });
  f.sim.run();
  const TransportTimer fresh = tr.set_timer(a, 100, [&] { ++second; });
  EXPECT_EQ(static_cast<std::uint32_t>(stale.v), static_cast<std::uint32_t>(fresh.v));  // slot
  EXPECT_NE(stale.v, fresh.v);
  tr.cancel_timer(a, stale);
  tr.cancel_timer(a, TransportTimer{});
  f.sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Network, JitterVariesArrivals) {
  NetConfig cfg = fast_config();
  cfg.jitter = 500;
  Fixture f(cfg, 3);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  std::vector<Time> arrivals;
  f.net.set_handler(b, [&](Packet) { arrivals.push_back(f.sim.now()); });
  for (int i = 0; i < 20; ++i) {
    f.sim.scheduler().at(i * 10'000, [&, i] { f.net.send(a, b, to_bytes("x")); });
  }
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 20u);
  // Inter-arrival latencies should not all be identical under jitter.
  bool varied = false;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Time lat = arrivals[i] - static_cast<Time>(i) * 10'000;
    if (lat != arrivals[0]) varied = true;
    EXPECT_GE(lat, 1 * kMillisecond);
    EXPECT_LE(lat, 1 * kMillisecond + 500);
  }
  EXPECT_TRUE(varied);
}

TEST(Network, InjectedDuplicatesCountTowardWireBytes) {
  // Regression: duplicated copies occupy the wire like any other copy, so
  // bytes_on_wire must grow by payload + overhead per duplicate.
  struct AlwaysDuplicate : FaultInjector {
    CopyPlan on_copy(NodeId, NodeId, Time) override {
      CopyPlan p;
      p.duplicate = true;
      return p;
    }
  };
  NetConfig cfg = fast_config();
  cfg.wire_overhead_bytes = 10;
  Fixture f(cfg);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int got = 0;
  f.net.set_handler(b, [&](Packet) { ++got; });
  AlwaysDuplicate dup;
  f.net.set_fault_injector(&dup);
  f.net.send(a, b, to_bytes("12345"));  // 5 payload bytes
  f.sim.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.net.stats().copies_duplicated, 1u);
  EXPECT_EQ(f.net.stats().bytes_on_wire, 2u * (5 + 10));
}

TEST(Network, DeliveryLatencySampledWhenEnabled) {
  NetConfig cfg = fast_config();
  cfg.sample_delivery_latency = true;
  Fixture f(cfg);
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.set_handler(b, [](Packet) {});
  f.net.send(a, b, to_bytes("x"));
  f.sim.run();
  ASSERT_EQ(f.net.stats().delivery_latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(f.net.stats().delivery_latency_ms.max(), 1.0);  // base_latency 1 ms
  EXPECT_NE(f.net.stats().summary().find("latency_ms(p50/p99/max)"), std::string::npos);
}

TEST(Network, DeliveryLatencyNotSampledByDefault) {
  Fixture f(fast_config());
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.set_handler(b, [](Packet) {});
  f.net.send(a, b, to_bytes("x"));
  f.sim.run();
  EXPECT_TRUE(f.net.stats().delivery_latency_ms.empty());
  EXPECT_EQ(f.net.stats().summary().find("latency_ms"), std::string::npos);
}

}  // namespace
}  // namespace msw
