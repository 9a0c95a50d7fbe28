// Property-based stress sweeps of the switching protocol: randomized
// workloads, switch times, initiators, group sizes, and loss rates — the
// invariants (agreement, total order, exactly-once, epoch convergence,
// drained buffers) must hold on every run.
#include <gtest/gtest.h>

#include <set>

#include "helpers.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

struct StressCase {
  std::uint64_t seed;
  std::size_t members;
  double loss;
  int switches;
};

std::string case_name(const StressCase& c) {
  return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.members) + "_loss" +
         std::to_string(static_cast<int>(c.loss * 100)) + "_sw" + std::to_string(c.switches);
}

// gtest prints the parameter into each test's listing, and the listing is
// the ctest name; without this it dumps the struct's bytes, padding
// included, which differ from run to run.
void PrintTo(const StressCase& c, std::ostream* os) { *os << case_name(c); }

class SwitchStress : public ::testing::TestWithParam<StressCase> {};

SwitchLayer& sl(GroupHarness& h, std::size_t i) { return switch_layer_of(h.group.stack(i)); }

TEST_P(SwitchStress, InvariantsHoldUnderRandomizedRuns) {
  const StressCase c = GetParam();
  GroupHarness h(c.members, make_hybrid_total_order_factory(),
                 c.loss > 0 ? testing::lossy_net(c.loss) : testing::ideal_net(), c.seed);
  Rng rng(c.seed * 7919 + 13);

  // Random traffic: every member sends at random instants over 1.2 s.
  const int messages = 40 + static_cast<int>(rng.index(40));
  for (int k = 0; k < messages; ++k) {
    const std::size_t sender = rng.index(c.members);
    const Time at = static_cast<Time>(rng.below(1200)) * kMillisecond;
    h.sim.scheduler().at(at, [&h, sender, k] {
      h.group.send(sender, to_bytes("s" + std::to_string(k)));
    });
  }
  // Random switches, random initiators, spread over the same window.
  for (int s = 0; s < c.switches; ++s) {
    const std::size_t initiator = rng.index(c.members);
    const Time at = 100 * kMillisecond + static_cast<Time>(rng.below(1000)) * kMillisecond;
    h.sim.scheduler().at(at, [&h, initiator] { sl(h, initiator).request_switch(); });
  }
  h.sim.run_for(c.loss > 0 ? 60 * kSecond : 20 * kSecond);

  // Invariant 1: agreement — identical delivery sequences everywhere.
  const auto reference = h.delivered_data(0);
  EXPECT_EQ(reference.size(), static_cast<std::size_t>(messages));
  for (std::size_t i = 1; i < c.members; ++i) {
    EXPECT_EQ(h.delivered_data(i), reference) << "member " << i << " diverged";
  }
  // Invariant 2: the captured trace satisfies the switch-safe properties.
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
  EXPECT_TRUE(NoReplayProperty().holds(h.group.trace()));
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < c.members; ++i) ids.push_back(h.group.node(i).v);
  EXPECT_TRUE(ReliabilityProperty(ids).holds(h.group.trace()));
  // Invariant 3: every member converged to the same epoch, not mid-switch,
  // with drained buffers.
  const std::uint64_t epoch = sl(h, 0).epoch();
  for (std::size_t i = 0; i < c.members; ++i) {
    EXPECT_EQ(sl(h, i).epoch(), epoch) << "member " << i;
    EXPECT_FALSE(sl(h, i).switching()) << "member " << i;
    EXPECT_EQ(sl(h, i).buffered(), 0u) << "member " << i;
  }
  // Invariant 4: the number of completed switches is consistent: requests
  // may coalesce (only NORMAL-token holders initiate), so completed <=
  // requested, and every completed switch advanced the epoch.
  EXPECT_LE(epoch, static_cast<std::uint64_t>(c.switches));
  EXPECT_EQ(sl(h, 0).stats().switches_completed, epoch);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SwitchStress,
    ::testing::Values(StressCase{1, 3, 0.0, 1}, StressCase{2, 3, 0.0, 3},
                      StressCase{3, 5, 0.0, 2}, StressCase{4, 5, 0.0, 4},
                      StressCase{5, 8, 0.0, 2}, StressCase{6, 2, 0.0, 3},
                      StressCase{7, 10, 0.0, 1}, StressCase{8, 4, 0.1, 2},
                      StressCase{9, 5, 0.15, 3}, StressCase{10, 3, 0.2, 2},
                      StressCase{11, 6, 0.05, 4}, StressCase{12, 4, 0.0, 6}),
    [](const ::testing::TestParamInfo<StressCase>& info) { return case_name(info.param); });

TEST(SwitchPartition, SwitchStallsAcrossPartitionAndHeals) {
  // Partition one member away mid-switch: SP cannot complete (the token
  // cannot circulate / the drain cannot finish) until the partition heals;
  // afterwards everything converges with no loss.
  GroupHarness h(4, make_hybrid_total_order_factory());
  for (int k = 0; k < 12; ++k) {
    h.sim.scheduler().at(k * 10 * kMillisecond,
                         [&, k] { h.group.send(k % 4, to_bytes("p" + std::to_string(k))); });
  }
  h.sim.run_for(200 * kMillisecond);
  // Isolate member 2 in both directions.
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;
    h.net.set_link_up(h.group.node(2), h.group.node(i), false);
    h.net.set_link_up(h.group.node(i), h.group.node(2), false);
  }
  switch_layer_of(h.group.stack(0)).request_switch();
  h.sim.run_for(3 * kSecond);
  // The switch cannot have completed at everyone (member 2 is cut off).
  EXPECT_LT(switch_layer_of(h.group.stack(2)).epoch(), 1u);
  // Heal and converge.
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;
    h.net.set_link_up(h.group.node(2), h.group.node(i), true);
    h.net.set_link_up(h.group.node(i), h.group.node(2), true);
  }
  h.sim.run_for(30 * kSecond);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(switch_layer_of(h.group.stack(i)).epoch(), 1u) << "member " << i;
    EXPECT_EQ(h.delivered_data(i).size(), 12u) << "member " << i;
  }
  EXPECT_TRUE(TotalOrderProperty().holds(h.group.trace()));
}

TEST(SwitchPartition, TokenRetransmissionSurvivesBriefOutage) {
  GroupHarness h(3, make_hybrid_total_order_factory());
  h.sim.run_for(100 * kMillisecond);
  // Briefly sever the ring edge 0 -> 1; the SP token retransmits across it.
  h.net.set_link_up(h.group.node(0), h.group.node(1), false);
  h.sim.scheduler().after(200 * kMillisecond, [&] {
    h.net.set_link_up(h.group.node(0), h.group.node(1), true);
  });
  switch_layer_of(h.group.stack(1)).request_switch();
  h.sim.run_for(5 * kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(switch_layer_of(h.group.stack(i)).epoch(), 1u) << "member " << i;
  }
  std::uint64_t retx = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    retx += switch_layer_of(h.group.stack(i)).stats().token_retransmissions;
  }
  EXPECT_GT(retx, 0u);
}

TEST(SwitchStressMisc, ConcurrentRequestsCoalesceViaToken) {
  // Several members request simultaneously; the ring serializes them: the
  // first NORMAL-token holder initiates, others initiate on later NORMAL
  // tokens (or their request is absorbed by already being on the other
  // protocol... the request flag persists, so each request eventually
  // produces a switch).
  GroupHarness h(4, make_hybrid_total_order_factory());
  h.sim.run_for(100 * kMillisecond);
  for (std::size_t i = 0; i < 4; ++i) switch_layer_of(h.group.stack(i)).request_switch();
  h.sim.run_for(10 * kSecond);
  // All four requests fire, one at a time: epoch advances by exactly 4.
  std::uint64_t epoch = switch_layer_of(h.group.stack(0)).epoch();
  EXPECT_EQ(epoch, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(switch_layer_of(h.group.stack(i)).epoch(), epoch);
    EXPECT_FALSE(switch_layer_of(h.group.stack(i)).switching());
  }
}

}  // namespace
}  // namespace msw
