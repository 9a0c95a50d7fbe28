// SP over each property-bearing stack, with mid-traffic switches: the
// Figure 1 composition claim exercised per property. Six-meta-property
// properties (and the Reliability-style exceptions) must survive every
// run; the layers' own guarantees (e.g. prioritized delivery WITHIN each
// protocol instance) keep functioning after the switch.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/causal_layer.hpp"
#include "proto/confidentiality_layer.hpp"
#include "proto/fifo_layer.hpp"
#include "proto/integrity_layer.hpp"
#include "proto/noreplay_layer.hpp"
#include "proto/priority_layer.hpp"
#include "proto/reliable_layer.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

constexpr std::uint64_t kKey = 0xfeed;

/// One reliable-fifo sub-protocol with `extra` layered on top.
template <typename ExtraLayer, typename... Args>
LayerFactory stack_with(Args... args) {
  return [args...](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<ExtraLayer>(args...));
    layers.push_back(std::make_unique<FifoLayer>());
    layers.push_back(std::make_unique<ReliableLayer>());
    return layers;
  };
}

/// Runs traffic with two switches over SP(factory, factory); returns the
/// harness for property checks.
std::unique_ptr<GroupHarness> run_switched(const LayerFactory& proto, std::uint64_t seed,
                                           int messages = 24) {
  auto h = std::make_unique<GroupHarness>(4, make_switch_factory(proto, proto),
                                          testing::ideal_net(), seed);
  Rng rng(seed * 97 + 1);
  for (int k = 0; k < messages; ++k) {
    const std::size_t sender = rng.index(4);
    h->sim.scheduler().at(static_cast<Time>(rng.below(500)) * kMillisecond,
                          [&h = *h, sender, k] {
                            h.group.send(sender, to_bytes("m" + std::to_string(k)));
                          });
  }
  h->sim.scheduler().at(150 * kMillisecond,
                        [&h = *h] { switch_layer_of(h.group.stack(0)).request_switch(); });
  h->sim.scheduler().at(400 * kMillisecond,
                        [&h = *h] { switch_layer_of(h.group.stack(2)).request_switch(); });
  h->sim.run_for(20 * kSecond);
  return h;
}

class SwitchedStacks : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchedStacks, NoReplayStackStaysReplayFree) {
  auto h = run_switched(stack_with<NoReplayLayer>(), GetParam());
  EXPECT_EQ(switch_layer_of(h->group.stack(0)).epoch(), 2u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h->delivered_data(p).size(), 24u) << "member " << p;
  }
  EXPECT_TRUE(NoReplayProperty().holds(h->group.trace()));
}

TEST_P(SwitchedStacks, IntegrityStackDeliversOnlyTrustedTraffic) {
  auto h = run_switched(stack_with<IntegrityLayer>(kKey), GetParam());
  std::set<std::uint32_t> trusted;
  for (std::size_t i = 0; i < 4; ++i) trusted.insert(h->group.node(i).v);
  EXPECT_TRUE(IntegrityProperty(trusted).holds(h->group.trace()));
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h->delivered_data(p).size(), 24u) << "member " << p;
  }
}

TEST_P(SwitchedStacks, ConfidentialityStackKeepsDecrypting) {
  auto h = run_switched(stack_with<ConfidentialityLayer>(kKey), GetParam());
  // Bodies must round-trip through two independent cipher instances and
  // the switch: every delivered body is one of the sent plaintexts.
  std::set<Bytes> sent_bodies;
  for (const auto& e : h->group.trace()) {
    if (e.is_send()) sent_bodies.insert(e.body);
  }
  std::size_t delivered = 0;
  for (const auto& e : h->group.trace()) {
    if (!e.is_deliver()) continue;
    ++delivered;
    EXPECT_TRUE(sent_bodies.count(e.body)) << "garbled plaintext after switch";
  }
  EXPECT_EQ(delivered, 24u * 4u);
}

TEST_P(SwitchedStacks, CausalStackStaysCausal) {
  const auto causal = [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<CausalLayer>());
    layers.push_back(std::make_unique<ReliableLayer>());
    return layers;
  };
  auto h = run_switched(causal, GetParam());
  EXPECT_TRUE(CausalOrderProperty().holds(h->group.trace()));
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h->delivered_data(p).size(), 24u) << "member " << p;
  }
}

TEST_P(SwitchedStacks, PriorityStackKeepsWorkingPerEpoch) {
  // Prioritized Delivery is NOT asynchronous and can be lost ACROSS a
  // switch; but each instance keeps enforcing it, so messages entirely
  // within one epoch stay master-first. We check functional liveness:
  // everything is delivered everywhere, exactly once.
  auto h = run_switched(stack_with<PriorityLayer>(), GetParam());
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h->delivered_data(p).size(), 24u) << "member " << p;
  }
  EXPECT_TRUE(NoReplayProperty().holds(h->group.trace()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchedStacks, ::testing::Values(1, 2, 3, 4, 5));

TEST(SwitchConfigKnobs, NormalHoldThrottlesIdleTokenTraffic) {
  // The idle NORMAL token turns in ~3 ms on 1 ms hops, longer than the
  // default pacing period; a 20 ms period paces it to one turn per 20 ms.
  SwitchConfig slow;
  slow.normal_period = 20 * kMillisecond;
  HybridConfig fast_cfg;
  HybridConfig slow_cfg;
  slow_cfg.sp = slow;

  GroupHarness fast(3, make_hybrid_total_order_factory(fast_cfg));
  fast.sim.run_for(2 * kSecond);
  GroupHarness held(3, make_hybrid_total_order_factory(slow_cfg));
  held.sim.run_for(2 * kSecond);

  const auto fast_hops = switch_layer_of(fast.group.stack(0)).stats().token_hops;
  const auto held_hops = switch_layer_of(held.group.stack(0)).stats().token_hops;
  EXPECT_LT(held_hops * 3, fast_hops)
      << "normal_period should slow the idle NORMAL token substantially";
  // And a switch still works under the throttled token.
  switch_layer_of(held.group.stack(1)).request_switch();
  held.sim.run_for(5 * kSecond);
  EXPECT_EQ(switch_layer_of(held.group.stack(1)).epoch(), 1u);
}

}  // namespace
}  // namespace msw
