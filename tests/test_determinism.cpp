// End-to-end determinism: the whole stack — scheduler tie-breaking, RNG
// forking, network jitter/loss, protocol timers, SP token rotation — must
// reproduce bit-identical traces for a given seed, within a build and, for
// the pinned scenarios at the end, across builds. Every experiment in
// EXPERIMENTS.md rests on this.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "harness/workload.hpp"
#include "helpers.hpp"
#include "net/fault.hpp"
#include "switch/hybrid.hpp"
#include "trace/trace.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

Trace run_scenario(std::uint64_t seed) {
  GroupHarness h(5, make_hybrid_total_order_factory(), testing::lossy_net(0.1), seed);
  Rng rng(seed + 1);
  for (int k = 0; k < 30; ++k) {
    const std::size_t sender = rng.index(5);
    h.sim.scheduler().at(static_cast<Time>(rng.below(800)) * kMillisecond, [&h, sender, k] {
      h.group.send(sender, to_bytes("d" + std::to_string(k)));
    });
  }
  h.sim.scheduler().at(300 * kMillisecond,
                       [&h] { switch_layer_of(h.group.stack(2)).request_switch(); });
  h.sim.run_for(20 * kSecond);
  return h.group.trace();
}

bool traces_identical_with_times(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i]) || a[i].time != b[i].time) return false;
  }
  return true;
}

TEST(Determinism, IdenticalSeedIdenticalTrace) {
  const Trace first = run_scenario(77);
  const Trace second = run_scenario(77);
  EXPECT_TRUE(traces_identical_with_times(first, second))
      << "a seeded run must be bit-reproducible, timestamps included";
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, DifferentSeedsDiverge) {
  const Trace a = run_scenario(77);
  const Trace b = run_scenario(78);
  EXPECT_FALSE(traces_identical_with_times(a, b))
      << "jitter and loss must actually depend on the seed";
}

TEST(Determinism, WorkloadHarnessIsReproducible) {
  const auto run = [] {
    Simulation sim(9);
    Network net(sim.scheduler(), sim.fork_rng(), testing::era_net());
    Group group(sim, net, 6, make_sequencer_factory());
    group.start();
    WorkloadConfig cfg;
    cfg.senders = 3;
    cfg.duration = 2 * kSecond;
    cfg.poisson = true;
    const auto res = run_workload(sim, group, cfg);
    return std::make_tuple(res.sent, res.delivered, res.latency_ms.mean());
  };
  EXPECT_EQ(run(), run());
}

std::uint64_t faulted_run_digest(std::uint64_t seed, const FaultSchedule& schedule) {
  Simulation sim(seed);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.05));
  Group group(sim, net, 4, make_hybrid_total_order_factory());
  FaultPlane plane(net, sim.fork_rng(), schedule);
  plane.install();
  group.start();
  for (int k = 0; k < 20; ++k) {
    sim.scheduler().at((30 + k * 40) * kMillisecond,
                       [&group, k] { group.send(k % 4, to_bytes("f" + std::to_string(k))); });
  }
  sim.scheduler().at(350 * kMillisecond,
                     [&group] { switch_layer_of(group.stack(1)).request_switch(); });
  sim.run_for(20 * kSecond);
  return trace_digest(group.trace());
}

TEST(Determinism, IdenticalFaultScheduleIdenticalDigest) {
  // Same seed + same FaultSchedule across two fresh Simulations => the
  // same trace digest; the fault plane's per-link streams must not leak
  // nondeterminism. The fuzzer's minimal reproducers rest on this.
  const auto schedule = FaultSchedule::parse(
      "dup=0.05@40000;reorder=0.1@20000;linkdown@200000:0-2;linkup@450000:0-2;"
      "part@600000:x2;heal@800000:x2;jitter@300000:150000:5000");
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(faulted_run_digest(4242, *schedule), faulted_run_digest(4242, *schedule));
  EXPECT_NE(faulted_run_digest(4242, *schedule), faulted_run_digest(4243, *schedule))
      << "the simulation seed must actually feed the faulted run";

  FaultSchedule harder = *schedule;
  harder.dup_prob = 0.2;
  EXPECT_NE(faulted_run_digest(4242, *schedule), faulted_run_digest(4242, harder))
      << "the schedule's knobs must actually perturb the run";
}

TEST(Determinism, NetworkStatsReproducible) {
  const auto run = [] {
    GroupHarness h(4, make_token_factory(), testing::lossy_net(0.2), 31);
    for (int i = 0; i < 10; ++i) h.group.send(i % 4, to_bytes("n" + std::to_string(i)));
    h.sim.run_for(5 * kSecond);
    const auto& s = h.net.stats();
    return std::make_tuple(s.unicasts_sent, s.multicasts_sent, s.copies_delivered,
                           s.copies_dropped_loss, s.bytes_on_wire);
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------- goldens
//
// The tests above compare a run with itself inside one build. These pin a
// run's output across builds: any change to the simulator, the Transport
// boundary, the stack or a protocol that moves one event, one timestamp or
// one byte on the wire fails here. A change that means to move them
// re-records the constants and says why. The scenarios draw only integer
// randomness (no Rng::exponential, whose libm log could differ between
// toolchains).

struct Pinned {
  std::uint64_t digest;            // trace_digest, timestamps included
  std::uint64_t copies_delivered;  // NetStats
  std::uint64_t bytes_on_wire;     // NetStats
};

Pinned pin(const Trace& trace, const NetStats& stats) {
  return Pinned{trace_digest(trace), stats.copies_delivered, stats.bytes_on_wire};
}

void expect_pinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.copies_delivered, want.copies_delivered);
  EXPECT_EQ(got.bytes_on_wire, want.bytes_on_wire);
}

TEST(DeterminismGolden, ReliableFifoUnderLoss) {
  // Three reliable-FIFO stacks built one by one on a 5%-loss network.
  Simulation sim(/*seed=*/42);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.05));
  constexpr std::size_t kN = 3;
  const LayerFactory factory = make_reliable_fifo_factory();
  TraceCapture capture;
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < kN; ++i) members.push_back(net.add_node());
  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < kN; ++i) {
    stacks.push_back(std::make_unique<Stack>(net, members[i], members,
                                             factory(members[i], members), sim.fork_rng(),
                                             &capture));
  }
  for (auto& s : stacks) s->start();
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < kN; ++i) {
      stacks[i]->send(to_bytes("r" + std::to_string(round) + "n" + std::to_string(i)));
    }
    sim.run_for(5 * kMillisecond);
  }
  sim.run_for(2 * kSecond);
  ASSERT_FALSE(capture.trace().empty());
  expect_pinned(pin(capture.trace(), net.stats()),
                Pinned{4321577084980187806ULL, 662, 8024});
}

TEST(DeterminismGolden, SequencerBatchedRunsUnderLoss) {
  // Runs of 1-4 messages ride the batched data plane; with no jitter the
  // copies of a run coalesce into one delivery at each member.
  GroupHarness h(4, make_sequencer_factory(), testing::lossy_net(0.02), /*seed=*/5);
  for (int k = 0; k < 16; ++k) {
    h.sim.scheduler().at((10 + 15 * k) * kMillisecond, [&h, k] {
      std::vector<Bytes> run;
      for (int j = 0; j <= k % 4; ++j) {
        run.push_back(to_bytes("b" + std::to_string(k) + "." + std::to_string(j)));
      }
      h.group.send_batch(static_cast<std::size_t>(k % 4), std::move(run));
    });
  }
  h.sim.run_for(5 * kSecond);
  ASSERT_FALSE(h.group.trace().empty());
  expect_pinned(pin(h.group.trace(), h.net.stats()),
                Pinned{3194890057958847766ULL, 755, 8614});
}

TEST(DeterminismGolden, SwitchingProtocolAcrossSwitches) {
  // SP over {sequencer, token} on a 5%-loss network, with three switch
  // requests from different members while traffic flows.
  GroupHarness h(5, make_hybrid_total_order_factory(), testing::lossy_net(0.05), /*seed=*/11);
  Rng rng(12);
  for (int k = 0; k < 40; ++k) {
    const std::size_t sender = rng.index(5);
    h.sim.scheduler().at(static_cast<Time>(rng.below(1200)) * kMillisecond, [&h, sender, k] {
      h.group.send(sender, to_bytes("s" + std::to_string(k)));
    });
  }
  for (const auto& [at_ms, member] : {std::pair{200, 1}, std::pair{600, 3}, std::pair{1000, 0}}) {
    h.sim.scheduler().at(at_ms * kMillisecond, [&h, member = member] {
      switch_layer_of(h.group.stack(static_cast<std::size_t>(member))).request_switch();
    });
  }
  h.sim.run_for(20 * kSecond);
  ASSERT_FALSE(h.group.trace().empty());
  expect_pinned(pin(h.group.trace(), h.net.stats()),
                Pinned{15696953621950316703ULL, 47091, 1735409});
}

}  // namespace
}  // namespace msw
