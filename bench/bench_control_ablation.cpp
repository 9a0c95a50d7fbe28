// E12 — ablation of SP's control plane: the NORMAL token circulates
// perpetually so that any member can initiate a switch, which costs
// background control traffic. The pacing period (SwitchConfig::
// normal_period) bounds that cost: a member forwards a NORMAL token that
// carries no work no sooner than one period after its last forward. Below
// the ring's natural rotation (~22 ms on the era network) the period
// changes nothing; above it the idle ring turns once per period, and a
// switch request waits up to one period longer for the token. The sweep
// quantifies that trade-off, and the binary exits non-zero unless idle
// hops/s falls with every period past the natural rotation and
// request->switched stays within period + 4 natural rotations.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "calibration.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"

namespace msw::bench {
namespace {

struct Run {
  double control_hops_per_sec;  // idle NORMAL-token hops (group-wide)
  Duration rotation;            // normal_rotation() at the requester
  double request_to_done_ms;    // request_switch -> all members switched
};

/// Idle for 5 s, then for `delay`, then request a switch at member 3.
Run measure(Duration period, Duration delay) {
  Simulation sim(kSeed);
  Network net(sim.scheduler(), sim.fork_rng(), era_network());
  HybridConfig cfg;
  cfg.sequencer = sequencer_config();
  cfg.token = token_config();
  cfg.sp.normal_period = period;
  Group group(sim, net, kGroupSize, make_hybrid_total_order_factory(cfg));
  group.start();

  // Idle control cost over 5 s.
  sim.run_until(5 * kSecond);
  std::uint64_t hops = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    hops += switch_layer_of(group.stack(i)).stats().token_hops;
  }

  // Responsiveness: request, then wait for everyone to switch.
  sim.run_for(delay);
  SwitchLayer& requester = switch_layer_of(group.stack(3));
  const Time requested = sim.now();
  const Duration rotation = requester.normal_rotation();
  requester.request_switch();
  Time done = 0;
  while (sim.now() < 120 * kSecond) {
    sim.run_for(kMillisecond);
    bool all = true;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (switch_layer_of(group.stack(i)).epoch() < 1) all = false;
    }
    if (all) {
      done = sim.now();
      break;
    }
  }
  return Run{static_cast<double>(hops) / 5.0, rotation, to_ms(done - requested)};
}

int run() {
  title("SP control-plane ablation: NORMAL-token pacing period vs. responsiveness");
  // The default period is shorter than the era ring's rotation, so the
  // default ring is unpaced: its rotation is the natural one.
  const Duration natural = measure(kTokenPacePeriod, 0).rotation;
  std::printf("%-10s %15s %13s %31s %10s\n", "period(ms)", "idle ctl hops/s", "rotation(ms)",
              "request->switched mean/max(ms)", "bound(ms)");
  rule(83);
  int failures = 0;
  double prev_hops = 0;
  for (Duration period : {kTokenPacePeriod, 50 * kMillisecond, 100 * kMillisecond,
                          200 * kMillisecond, 500 * kMillisecond}) {
    // Request at four phases of the paced cycle, which is at most
    // period + natural long.
    constexpr int kPhases = 4;
    Run first{};
    double sum_ms = 0;
    double max_ms = 0;
    for (int k = 0; k < kPhases; ++k) {
      const Run r = measure(period, k * (period + natural) / kPhases);
      if (k == 0) first = r;
      sum_ms += r.request_to_done_ms;
      max_ms = std::max(max_ms, r.request_to_done_ms > 0 ? r.request_to_done_ms : 1e9);
    }
    const double bound_ms = to_ms(period + 4 * natural);
    std::printf("%-10.0f %15.1f %13.2f %20.2f / %8.2f %10.1f\n", to_ms(period),
                first.control_hops_per_sec, to_ms(first.rotation), sum_ms / kPhases, max_ms,
                bound_ms);
    if (max_ms > bound_ms) {
      std::printf("FAIL: period %.0f ms: request->switched %.2f ms exceeds %.1f ms\n",
                  to_ms(period), max_ms, bound_ms);
      ++failures;
    }
    if (period > natural && first.control_hops_per_sec >= prev_hops) {
      std::printf("FAIL: period %.0f ms: idle hops/s did not fall\n", to_ms(period));
      ++failures;
    }
    prev_hops = first.control_hops_per_sec;
  }
  rule(83);
  std::printf(
      "natural rotation %.2f ms. Past it, the idle ring turns once per period:\n"
      "control traffic falls in proportion, the reported rotation leaves the\n"
      "holds out, and switch initiation waits up to one period for the token.\n",
      to_ms(natural));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace msw::bench

int main() { return msw::bench::run(); }
