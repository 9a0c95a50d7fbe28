// Layer composition: wiring, pass-through defaults, ordering of headers
// across a chain, and the Services plumbing.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "stack/layer.hpp"
#include "stack/stack.hpp"

namespace msw {
namespace {

/// Tags messages with its id going down; verifies and strips going up.
class TagLayer : public Layer {
 public:
  explicit TagLayer(std::uint8_t id) : id_(id) {}
  std::string_view name() const override { return "tag"; }

  void down(Message m) override {
    m.push_header([&](Writer& w) { w.u8(id_); });
    ctx().send_down(std::move(m));
  }
  void up(Message m) override {
    std::uint8_t got = 0;
    m.pop_header([&](Reader& r) { got = r.u8(); });
    EXPECT_EQ(got, id_) << "header of a different layer surfaced here";
    ++seen_;
    ctx().deliver_up(std::move(m));
  }

  int seen() const { return seen_; }

 private:
  std::uint8_t id_;
  int seen_ = 0;
};

/// Records start() invocations and context facts.
class ProbeLayer : public Layer {
 public:
  std::string_view name() const override { return "probe"; }
  void start() override {
    started_ = true;
    self_ = ctx().self();
    members_ = ctx().members().size();
    ring_next_ = ctx().ring_successor();
  }
  bool started_ = false;
  NodeId self_{};
  std::size_t members_ = 0;
  NodeId ring_next_{};
};

NetConfig fast_config() {
  NetConfig cfg;
  cfg.base_latency = 1 * kMillisecond;
  cfg.jitter = 0;
  cfg.cpu_send = 0;
  cfg.cpu_recv = 0;
  cfg.bandwidth_bps = 0;
  return cfg;
}

struct Fixture {
  Fixture() : sim(1), net(sim.scheduler(), sim.fork_rng(), fast_config()) {}
  Simulation sim;
  Network net;
};

TEST(LayerChain, HeadersNestCorrectlyAcrossGroup) {
  Fixture f;
  Group group(f.sim, f.net, 3, [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<TagLayer>(1));
    layers.push_back(std::make_unique<TagLayer>(2));
    layers.push_back(std::make_unique<TagLayer>(3));
    return layers;
  });
  group.start();

  int delivered = 0;
  Bytes got;
  group.stack(2).set_on_deliver([&](const MsgId&, std::span<const Byte> body) {
    ++delivered;
    got.assign(body.begin(), body.end());
  });
  group.send(0, to_bytes("hello"));
  f.sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(got, to_bytes("hello"));
}

TEST(LayerChain, EmptyChainStillDelivers) {
  Fixture f;
  Group group(f.sim, f.net, 2,
              [](NodeId, const std::vector<NodeId>&) {
                return std::vector<std::unique_ptr<Layer>>{};
              });
  group.start();
  int delivered = 0;
  group.stack(1).set_on_deliver([&](const MsgId&, std::span<const Byte>) { ++delivered; });
  group.send(0, to_bytes("x"));
  f.sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(LayerChain, StartReachesEveryLayerWithContext) {
  Fixture f;
  std::vector<ProbeLayer*> probes;
  Group group(f.sim, f.net, 3, [&](NodeId, const std::vector<NodeId>&) {
    auto probe = std::make_unique<ProbeLayer>();
    probes.push_back(probe.get());
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::move(probe));
    return layers;
  });
  group.start();
  ASSERT_EQ(probes.size(), 3u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(probes[i]->started_);
    EXPECT_EQ(probes[i]->self_, group.node(i));
    EXPECT_EQ(probes[i]->members_, 3u);
    EXPECT_EQ(probes[i]->ring_next_, group.node((i + 1) % 3));
  }
}

TEST(LayerChain, SelfDeliveryLoopsBack) {
  Fixture f;
  Group group(f.sim, f.net, 2,
              [](NodeId, const std::vector<NodeId>&) {
                return std::vector<std::unique_ptr<Layer>>{};
              });
  group.start();
  int self_delivered = 0;
  group.stack(0).set_on_deliver([&](const MsgId& id, std::span<const Byte>) {
    EXPECT_EQ(id.sender, group.node(0).v);
    ++self_delivered;
  });
  group.send(0, to_bytes("loop"));
  f.sim.run();
  EXPECT_EQ(self_delivered, 1);
}

TEST(LayerChain, CaptureRecordsSendsAndDelivers) {
  Fixture f;
  Group group(f.sim, f.net, 3,
              [](NodeId, const std::vector<NodeId>&) {
                return std::vector<std::unique_ptr<Layer>>{};
              });
  group.start();
  group.send(0, to_bytes("a"));
  group.send(1, to_bytes("b"));
  f.sim.run();
  const Trace& tr = group.trace();
  EXPECT_TRUE(well_formed(tr));
  EXPECT_EQ(group.capture().send_count(group.node(0)), 1u);
  EXPECT_EQ(group.capture().send_count(group.node(1)), 1u);
  EXPECT_EQ(group.total_delivered(), 6u);  // 2 messages x 3 members
}

TEST(LayerChain, MsgIdsAreUniquePerSender) {
  Fixture f;
  Group group(f.sim, f.net, 2,
              [](NodeId, const std::vector<NodeId>&) {
                return std::vector<std::unique_ptr<Layer>>{};
              });
  group.start();
  for (int i = 0; i < 5; ++i) group.send(0, to_bytes("m"));
  f.sim.run();
  std::set<MsgId> ids;
  for (const auto& e : group.trace()) {
    if (e.is_send()) {
      EXPECT_TRUE(ids.insert(e.msg).second);
    }
  }
  EXPECT_EQ(ids.size(), 5u);
}

/// A one-member stack with no layers: only its Services surface matters.
std::unique_ptr<Stack> bare_stack(Fixture& f) {
  const NodeId self = f.net.add_node();
  return std::make_unique<Stack>(f.net, self, std::vector<NodeId>{self},
                                 std::vector<std::unique_ptr<Layer>>{}, f.sim.fork_rng());
}

TEST(Stack, TimerFiresOnce) {
  Fixture f;
  auto stack = bare_stack(f);
  std::vector<Time> fired;
  const TimerId id = stack->set_timer(100, [&] { fired.push_back(f.sim.now()); });
  EXPECT_TRUE(id.valid());
  f.sim.run();
  EXPECT_EQ(fired, std::vector<Time>{100});
  stack->cancel_timer(id);  // already fired: a no-op
}

TEST(Stack, CancelledTimerDoesNotFire) {
  Fixture f;
  auto stack = bare_stack(f);
  int fired = 0;
  const TimerId id = stack->set_timer(100, [&] { ++fired; });
  stack->cancel_timer(id);
  f.sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(f.sim.scheduler().cancelled(), 1u);
}

TEST(Stack, DestructionCancelsTimers) {
  Fixture f;
  int fired = 0;
  {
    auto stack = bare_stack(f);
    stack->set_timer(100, [&] { ++fired; });
    stack->set_timer(200, [&] { ++fired; });
  }
  EXPECT_EQ(f.sim.scheduler().pending(), 0u);
  f.sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Group, PostRunsAsASchedulerEventAtTheCurrentTime) {
  // On the simulator post() runs nothing inline: the task is an event at
  // the current simulated time, behind every event already due then.
  Fixture f;
  Group group(f.sim, f.net, 2,
              [](NodeId, const std::vector<NodeId>&) {
                return std::vector<std::unique_ptr<Layer>>{};
              });
  f.sim.run_until(5 * kMillisecond);
  std::vector<std::string> order;
  f.sim.scheduler().after(0, [&] { order.push_back("due"); });
  group.post([&] { order.push_back("posted@" + std::to_string(f.sim.now())); });
  order.push_back("returned");
  f.sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"returned", "due", "posted@5000"}));
}

TEST(Group, CallRunsInlineOnTheSimulator) {
  Fixture f;
  Group group(f.sim, f.net, 2,
              [](NodeId, const std::vector<NodeId>&) {
                return std::vector<std::unique_ptr<Layer>>{};
              });
  bool ran = false;
  group.call([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(f.sim.scheduler().pending(), 0u);
}

}  // namespace
}  // namespace msw
