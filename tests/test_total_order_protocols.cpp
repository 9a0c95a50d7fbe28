// Integration: the sequencer-based and token-based total-order protocols
// deliver every message, in one agreed order, at every member — on ideal
// and lossy networks — and the captured traces satisfy the Table 1
// properties they claim.
#include <gtest/gtest.h>

#include <numeric>

#include "harness/workload.hpp"
#include "helpers.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

using testing::expect_identical_delivery;
using testing::GroupHarness;

struct ProtoCase {
  const char* name;
  LayerFactory (*make)();
};

// gtest prints the parameter into each test's listing, and the listing is
// the ctest name; without this it dumps the struct's bytes, which hold
// ASLR'd pointers and so change with every run.
void PrintTo(const ProtoCase& c, std::ostream* os) { *os << c.name; }

LayerFactory make_seq() { return make_sequencer_factory(); }
LayerFactory make_tok() { return make_token_factory(); }

class TotalOrderProtocols : public ::testing::TestWithParam<ProtoCase> {};

TEST_P(TotalOrderProtocols, SingleMessageReachesEveryone) {
  GroupHarness h(4, GetParam().make());
  h.send_and_settle(1, to_bytes("hello"));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.delivered_data(i).size(), 1u) << "member " << i;
  }
}

TEST_P(TotalOrderProtocols, ConcurrentSendersAgreeOnOrder) {
  GroupHarness h(5, GetParam().make());
  // Everyone sends a burst at the same instant.
  for (std::size_t i = 0; i < 5; ++i) {
    for (int k = 0; k < 4; ++k) h.group.send(i, to_bytes("m"));
  }
  h.sim.run_for(2 * kSecond);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h.delivered_data(i).size(), 20u) << "member " << i;
  }
  expect_identical_delivery(h);
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST_P(TotalOrderProtocols, StaggeredSendersAgreeOnOrder) {
  GroupHarness h(4, GetParam().make());
  for (int k = 0; k < 10; ++k) {
    const std::size_t sender = k % 4;
    h.sim.scheduler().at(k * 7 * kMillisecond,
                         [&, sender] { h.group.send(sender, to_bytes("x")); });
  }
  h.sim.run_for(3 * kSecond);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.delivered_data(i).size(), 10u);
  }
  expect_identical_delivery(h);
}

TEST_P(TotalOrderProtocols, SenderDeliversItsOwnMessages) {
  GroupHarness h(3, GetParam().make());
  h.send_and_settle(2, to_bytes("mine"));
  const auto delivered = h.delivered_data(2);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].sender, h.group.node(2).v);
}

TEST_P(TotalOrderProtocols, ReliableUnderLoss) {
  GroupHarness h(4, GetParam().make(), testing::lossy_net(0.1), /*seed=*/42);
  for (std::size_t i = 0; i < 4; ++i) {
    for (int k = 0; k < 5; ++k) {
      h.sim.scheduler().at((k * 4 + i) * 11 * kMillisecond,
                           [&, i] { h.group.send(i, to_bytes("L")); });
    }
  }
  h.sim.run_for(10 * kSecond);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.delivered_data(i).size(), 20u) << "member " << i << " lost messages";
  }
  expect_identical_delivery(h);
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST_P(TotalOrderProtocols, CapturedTraceSatisfiesReliabilityAndTotalOrder) {
  GroupHarness h(3, GetParam().make());
  for (int k = 0; k < 6; ++k) h.group.send(k % 3, to_bytes("p" + std::to_string(k)));
  h.sim.run_for(2 * kSecond);
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < 3; ++i) ids.push_back(h.group.node(i).v);
  EXPECT_TRUE(ReliabilityProperty(ids).holds(h.group.trace()));
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
}

TEST_P(TotalOrderProtocols, GroupOfOneDeliversLocally) {
  GroupHarness h(1, GetParam().make());
  h.send_and_settle(0, to_bytes("solo"));
  EXPECT_EQ(h.delivered_data(0).size(), 1u);
}

TEST_P(TotalOrderProtocols, HighLossEventuallyDelivers) {
  GroupHarness h(3, GetParam().make(), testing::lossy_net(0.35), /*seed=*/7);
  for (int k = 0; k < 5; ++k) h.group.send(0, to_bytes("hl"));
  h.sim.run_for(20 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.delivered_data(i).size(), 5u) << "member " << i;
  }
  expect_identical_delivery(h);
}

INSTANTIATE_TEST_SUITE_P(Protocols, TotalOrderProtocols,
                         ::testing::Values(ProtoCase{"sequencer", &make_seq},
                                           ProtoCase{"token", &make_tok}),
                         [](const ::testing::TestParamInfo<ProtoCase>& info) {
                           return info.param.name;
                         });

TEST(ProtocolLatency, SequencerBeatsTokenAtOneSender) {
  // The latency trade-off of section 7, in miniature: with a single active
  // sender the sequencer's two-hop path beats waiting for the token.
  const WorkloadConfig cfg{.senders = 1,
                           .rate_per_sender = 50,
                           .duration = 3 * kSecond,
                           .warmup = 500 * kMillisecond,
                           .drain = kSecond,
                           .body_size = 64,
                           .jitter_phase = true};

  Simulation sim_a(3);
  Network net_a(sim_a.scheduler(), sim_a.fork_rng(), testing::era_net());
  Group seq(sim_a, net_a, 10, make_sequencer_factory());
  seq.start();
  const auto seq_result = run_workload(sim_a, seq, cfg);

  Simulation sim_b(3);
  Network net_b(sim_b.scheduler(), sim_b.fork_rng(), testing::era_net());
  Group tok(sim_b, net_b, 10, make_token_factory());
  tok.start();
  const auto tok_result = run_workload(sim_b, tok, cfg);

  EXPECT_EQ(seq_result.missing_deliveries, 0u);
  EXPECT_EQ(tok_result.missing_deliveries, 0u);
  EXPECT_LT(seq_result.latency_ms.mean(), tok_result.latency_ms.mean());
}

}  // namespace
}  // namespace msw
