// Causal order (extension): the property predicate, the vector-clock
// causal broadcast layer, the generator family, the meta-property
// classification (not Delayable), and the Reliability-style nuance that SP
// nevertheless preserves causal order operationally.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/causal_layer.hpp"
#include "proto/fifo_layer.hpp"
#include "proto/reliable_layer.hpp"
#include "switch/hybrid.hpp"
#include "trace/generators.hpp"
#include "trace/meta.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

// ----------------------------------------------------------- the predicate

TEST(CausalProperty, RelayChainOrdered) {
  // p0 sends m1; p1 delivers it, then sends m2: m1 -> m2. p2 must deliver
  // m1 first.
  const Trace good = {send_ev(0, 0), deliver_ev(1, 0, 0), send_ev(1, 0),
                      deliver_ev(2, 0, 0), deliver_ev(2, 1, 0)};
  EXPECT_TRUE(CausalOrderProperty().holds(good));
  const Trace bad = {send_ev(0, 0), deliver_ev(1, 0, 0), send_ev(1, 0),
                     deliver_ev(2, 1, 0), deliver_ev(2, 0, 0)};
  EXPECT_FALSE(CausalOrderProperty().holds(bad));
}

TEST(CausalProperty, ConcurrentMessagesUnconstrained) {
  // Neither sender saw the other's message: any delivery order is fine.
  const Trace tr = {send_ev(0, 0), send_ev(1, 0),
                    deliver_ev(2, 1, 0), deliver_ev(2, 0, 0),
                    deliver_ev(3, 0, 0), deliver_ev(3, 1, 0)};
  EXPECT_TRUE(CausalOrderProperty().holds(tr));
}

TEST(CausalProperty, TransitiveChainThroughUndeliveredMiddle) {
  // m1 -> m2 -> m3; process 3 delivers m1 and m3 but never m2: the path
  // still constrains it.
  const Trace bad = {
      send_ev(0, 0),                            // m1
      deliver_ev(1, 0, 0), send_ev(1, 0),       // m2 after delivering m1
      deliver_ev(2, 1, 0), send_ev(2, 0),       // m3 after delivering m2
      deliver_ev(3, 2, 0), deliver_ev(3, 0, 0)  // m3 before m1: violation
  };
  EXPECT_FALSE(CausalOrderProperty().holds(bad));
}

TEST(CausalProperty, OwnSendsArePredecessors) {
  // FIFO is a special case of causal: p0's second message after its first.
  const Trace bad = {send_ev(0, 0), send_ev(0, 1), deliver_ev(1, 0, 1), deliver_ev(1, 0, 0)};
  EXPECT_FALSE(CausalOrderProperty().holds(bad));
}

// ------------------------------------------------------------ the generator

class CausalGenSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CausalGenSeeds, FamilySatisfiesCausalAndReliability) {
  Rng rng(GetParam());
  GenOptions opts;
  opts.n_procs = 4;
  opts.n_msgs = 8;
  const Trace tr = gen_causal_trace(rng, opts);
  EXPECT_TRUE(well_formed(tr));
  EXPECT_TRUE(CausalOrderProperty().holds(tr));
  std::vector<std::uint32_t> group = {0, 1, 2, 3};
  EXPECT_TRUE(ReliabilityProperty(group).holds(tr));
}

TEST_P(CausalGenSeeds, FamilyIsNotTotallyOrderedInGeneral) {
  // Across several seeds, at least one trace must order concurrent
  // messages differently at different processes.
  Rng rng(GetParam());
  GenOptions opts;
  opts.n_procs = 4;
  opts.n_msgs = 10;
  bool any_unordered = false;
  for (int i = 0; i < 10; ++i) {
    opts.seq_base = static_cast<std::uint64_t>(i) * 100;
    if (!TotalOrderProperty().holds(gen_causal_trace(rng, opts))) any_unordered = true;
  }
  EXPECT_TRUE(any_unordered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalGenSeeds, ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------------------ the layer

LayerFactory causal_stack() {
  return [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<CausalLayer>());
    layers.push_back(std::make_unique<ReliableLayer>());
    return layers;
  };
}

TEST(CausalLayer, DeliversEverythingCausally) {
  GroupHarness h(4, causal_stack());
  for (int k = 0; k < 12; ++k) {
    h.sim.scheduler().at(k * 7 * kMillisecond,
                         [&, k] { h.group.send(k % 4, to_bytes("c" + std::to_string(k))); });
  }
  h.sim.run_for(3 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 12u) << "member " << p;
  }
  EXPECT_TRUE(CausalOrderProperty().holds(h.group.trace()));
}

TEST(CausalLayer, BuffersRelayUntilDependencyArrives) {
  // The textbook scenario: m1 from 0 is delayed toward 2; 1 relays with
  // m2; member 2 must hold m2 until m1 shows up.
  GroupHarness h(3, causal_stack());
  h.net.set_link_up(h.group.node(0), h.group.node(2), false);
  h.group.send(0, to_bytes("m1"));
  h.sim.run_for(100 * kMillisecond);
  h.group.send(1, to_bytes("m2"));  // member 1 already delivered m1
  h.sim.run_for(200 * kMillisecond);
  EXPECT_TRUE(h.delivered_data(2).empty()) << "m2 delivered without its dependency";
  h.net.set_link_up(h.group.node(0), h.group.node(2), true);
  h.sim.run_for(3 * kSecond);
  const auto got = h.delivered_data(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].sender, h.group.node(0).v);
  EXPECT_EQ(got[1].sender, h.group.node(1).v);
  EXPECT_TRUE(CausalOrderProperty().holds(h.group.trace()));
}

TEST(CausalLayer, CausalUnderLoss) {
  GroupHarness h(4, causal_stack(), testing::lossy_net(0.15), /*seed=*/61);
  for (int k = 0; k < 16; ++k) {
    h.sim.scheduler().at(k * 9 * kMillisecond,
                         [&, k] { h.group.send(k % 4, to_bytes("l" + std::to_string(k))); });
  }
  h.sim.run_for(20 * kSecond);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 16u) << "member " << p;
  }
  EXPECT_TRUE(CausalOrderProperty().holds(h.group.trace()));
}

TEST(CausalLayer, VectorClockWithHugeCountIsDropped) {
  // A data frame (origin, vector-clock length) claiming 2^32 - 1 eight-byte
  // entries and carrying none, under the reliable layer's pass-through
  // byte, sent point-to-point to members 1 and 2. Reserving for the claim
  // would abort the process; the frames are dropped and causal delivery
  // goes on.
  GroupHarness h(3, causal_stack());
  for (const std::size_t dst : {1u, 2u}) {
    Message m = Message::group({});
    m.push_header([](Writer& w) {
      w.u8(0);
      w.u32(0);
      w.u32(0xffffffffu);
    });
    m.push_header([](Writer& w) { w.u8(1); });
    h.net.send(h.group.node(0), h.group.node(dst), std::move(m.data));
  }
  h.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(h.group.stack(1).decode_drops(), 1u);
  EXPECT_EQ(h.group.stack(2).decode_drops(), 1u);
  h.send_and_settle(0, to_bytes("after"), kSecond);
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
}

// ------------------------------------------- classification and the nuance

TEST(CausalMeta, NotDelayableWitness) {
  // Below: p1's send of m2 precedes its delivery of m1 (concurrent), and
  // p2 delivers m2 first — fine. Swapping the adjacent local pair makes
  // m1 causally precede m2, and p2's order becomes a violation.
  const Trace witness = {send_ev(0, 0),       send_ev(1, 0),       deliver_ev(1, 0, 0),
                         deliver_ev(2, 1, 0), deliver_ev(2, 0, 0), deliver_ev(1, 1, 0),
                         deliver_ev(0, 0, 0), deliver_ev(0, 1, 0)};
  ASSERT_TRUE(CausalOrderProperty().holds(witness));
  Rng rng(3);
  const std::vector<Trace> corpus = {witness};
  const auto res =
      check_preservation(CausalOrderProperty(), DelaySwapRelation(), corpus, rng, 64);
  EXPECT_EQ(res.verdict, MetaVerdict::kRefuted);
}

TEST(CausalMeta, FullRowOverCorpus) {
  Rng rng(404);
  const auto corpus = standard_corpus(rng, 10, 4);
  CausalOrderProperty causal;
  const auto relations = standard_relations();
  // Expected: Y Y Y n Y + composable Y.
  const char expected[5] = {'Y', 'Y', 'Y', 'n', 'Y'};
  for (std::size_t c = 0; c < relations.size(); ++c) {
    const auto res = check_preservation(causal, *relations[c], corpus, rng, 24);
    EXPECT_EQ(verdict_mark(res.verdict), expected[c])
        << "Causal Order / " << relations[c]->name();
  }
  const auto comp = check_composable(causal, corpus, rng);
  EXPECT_EQ(comp.verdict, MetaVerdict::kSupported);
}

TEST(CausalMeta, SpStillPreservesCausalOrderOperationally) {
  // Outside the six-meta-property class, yet preserved by the concrete SP
  // (like Reliability): the drain means no new-protocol message is
  // delivered anywhere before every old-protocol message — causality
  // cannot invert across the switch.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GroupHarness h(4, make_switch_factory(causal_stack(), causal_stack()), testing::ideal_net(),
                   seed);
    Rng rng(seed * 31);
    for (int k = 0; k < 30; ++k) {
      const std::size_t sender = rng.index(4);
      h.sim.scheduler().at(static_cast<Time>(rng.below(600)) * kMillisecond, [&h, sender, k] {
        h.group.send(sender, to_bytes("x" + std::to_string(k)));
      });
    }
    h.sim.scheduler().at(200 * kMillisecond,
                         [&h] { switch_layer_of(h.group.stack(1)).request_switch(); });
    h.sim.run_for(15 * kSecond);
    EXPECT_EQ(switch_layer_of(h.group.stack(0)).epoch(), 1u) << "seed " << seed;
    EXPECT_TRUE(CausalOrderProperty().holds(h.group.trace())) << "seed " << seed;
  }
}

}  // namespace
}  // namespace msw
