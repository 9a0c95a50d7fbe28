// Figure 2's crossover on the era calibration: with the network and
// protocol configs bench_fig2_latency runs (bench/calibration.hpp), the
// static sequencer's mean latency is below the token ring's at 5 active
// senders and above it at 6 — the paper's "between 5 and 6" (section 7).
#include <gtest/gtest.h>

#include "calibration.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

double mean_latency_ms(const LayerFactory& factory, std::size_t senders) {
  Simulation sim(bench::kSeed);
  Network net(sim.scheduler(), sim.fork_rng(), bench::era_network());
  Group group(sim, net, bench::kGroupSize, factory);
  group.start();
  const WorkloadResult r = run_workload(sim, group, bench::paper_workload(senders));
  EXPECT_EQ(r.missing_deliveries, 0u) << senders << " senders";
  return r.latency_ms.mean();
}

double sequencer_ms(std::size_t senders) {
  return mean_latency_ms(make_sequencer_factory(bench::sequencer_config()), senders);
}

double token_ms(std::size_t senders) {
  return mean_latency_ms(make_token_factory(bench::token_config()), senders);
}

TEST(Fig2Crossover, SequencerBeatsTokenAtFiveSenders) {
  EXPECT_LT(sequencer_ms(5), token_ms(5));
}

TEST(Fig2Crossover, TokenBeatsSequencerAtSixSenders) {
  EXPECT_GT(sequencer_ms(6), token_ms(6));
}

}  // namespace
}  // namespace msw
