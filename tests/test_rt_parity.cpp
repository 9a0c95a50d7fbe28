// Sim/real parity: the same seeded workload over the deterministic
// simulator and the threaded loopback backend must produce the same
// per-process delivery orders, and the streaming property monitors must
// return a clean verdict over both media. This is the acceptance test for
// "the medium is swappable": identical layer code, identical observable
// ordering semantics.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "monitor/monitor_set.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/udp_transport.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"
#include "telemetry/hub.hpp"

#include "helpers.hpp"

namespace msw {
namespace {

/// (sender, seq) pairs in delivery order, one list per process.
using DeliveryOrder = std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>;

constexpr std::size_t kN = 3;
constexpr std::uint64_t kMsgs = 200;

template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// How a scenario lets the medium under its group make progress.
struct Drive {
  /// Simulator: run `d` of simulated time. Threads, where the medium runs
  /// by itself: wait until `done` holds, or ~10 s. Returns `done()`.
  std::function<bool(Duration d, const std::function<bool()>& done)> run;
  /// Quiesce the medium, so what the group's context wrote may be read.
  std::function<void()> stop;
};

Drive sim_drive(Simulation& sim) {
  return {[&sim](Duration d, const std::function<bool()>& done) {
            sim.run_for(d);
            return done();
          },
          [] {}};
}

/// Starts the executor; the drive's stop() stops it.
Drive rt_drive(Executor& ex) {
  ex.start();
  return {[](Duration, const std::function<bool()>& done) { return eventually(done); },
          [&ex] { ex.stop(); }};
}

const std::function<bool()> kNow = [] { return true; };

/// Single-sender workload: member 0 multicasts kMsgs messages. With one
/// sender, reliable-FIFO pins every process's delivery order exactly —
/// making per-process order comparable across media with no tolerance.
DeliveryOrder single_sender(Group& group, const Drive& drive) {
  DeliveryOrder order(kN);
  group.call([&] {
    for (std::size_t i = 0; i < kN; ++i) {
      group.stack(i).set_on_deliver([&order, i](const MsgId& id, std::span<const Byte>) {
        order[i].emplace_back(id.sender, id.seq);
      });
    }
  });
  group.start();
  for (std::uint64_t m = 0; m < kMsgs; ++m) {
    testing::post_send(group, 0, Bytes{Byte{0x5a}});
    drive.run(2 * kMillisecond, kNow);
  }
  EXPECT_TRUE(drive.run(2 * kSecond, [&] { return group.total_delivered() == kN * kMsgs; }));
  drive.stop();
  return order;
}

DeliveryOrder single_sender_over_sim() {
  Simulation sim(/*seed=*/7);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.05));
  Group group(sim, net, kN, make_reliable_fifo_factory());
  return single_sender(group, sim_drive(sim));
}

DeliveryOrder single_sender_over(ThreadedTransport& tr, Executor& ex) {
  Group group(tr, kN, make_reliable_fifo_factory());
  return single_sender(group, rt_drive(ex));
}

TEST(RtParity, SingleSenderDeliveryOrderIdenticalSimVsLoopback) {
  const DeliveryOrder sim = single_sender_over_sim();
  Executor ex(2);
  LoopbackTransport tr(ex);
  const DeliveryOrder rt = single_sender_over(tr, ex);
  ASSERT_EQ(sim.size(), rt.size());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(sim[i].size(), kMsgs) << "sim process " << i;
    ASSERT_EQ(rt[i].size(), kMsgs) << "rt process " << i;
    EXPECT_EQ(sim[i], rt[i]) << "delivery order diverged at process " << i;
  }
}

TEST(RtParity, SingleSenderDeliveryOrderIdenticalSimVsUdp) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  const DeliveryOrder sim = single_sender_over_sim();
  Executor ex(2);
  UdpTransport tr(ex);
  const DeliveryOrder rt = single_sender_over(tr, ex);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(sim[i], rt[i]) << "delivery order diverged at process " << i;
  }
}

MonitorOptions sequencer_monitor_opts(std::size_t members) {
  MonitorOptions o;
  o.members = members;
  o.check_epoch_consistency = false;  // plain sequencer stack, no SP epochs
  return o;
}

/// Multi-sender total-order workload: every member sends interleaved. The
/// sequencer does not promise one specific interleaving across media — the
/// claim is the *property*: one total order, no loss, no duplicates. The
/// streaming monitors, attached to the group's hub, check exactly that.
void sequencer_monitors_clean(Group& group, MonitorSet& monitors, const Drive& drive) {
  group.start();
  for (std::uint64_t m = 0; m < 100; ++m) {
    for (std::size_t i = 0; i < 4; ++i) testing::post_send(group, i, Bytes{Byte{0x11}});
    drive.run(3 * kMillisecond, kNow);
  }
  EXPECT_TRUE(drive.run(2 * kSecond, [&] { return group.total_delivered() == 4u * 4u * 100u; }));
  const Time end = group.transport().now();
  drive.stop();
  monitors.finalize(end);
  EXPECT_TRUE(monitors.ok()) << monitors.first_reason();
}

TEST(RtParity, SequencerMonitorsVerdictCleanOverSim) {
  Simulation sim(/*seed=*/11);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.05));
  MonitorSet monitors(sim.telemetry(), sequencer_monitor_opts(4));
  monitors.add_total_order();
  monitors.add_reliable();
  Group group(sim, net, 4, make_sequencer_factory(), /*capture_trace=*/false);
  sequencer_monitors_clean(group, monitors, sim_drive(sim));
}

TEST(RtParity, SequencerMonitorsVerdictCleanOverLoopback) {
  TelemetryHub hub;
  MonitorSet monitors(hub, sequencer_monitor_opts(4));
  monitors.add_total_order();
  monitors.add_reliable();
  Executor ex(2);
  LoopbackTransport tr(ex);
  // One shard for the whole group: every telemetry emission (and so every
  // monitor callback) happens on that shard's thread — the monitors need
  // no locks over the real transport either.
  Group group(tr, 4, make_sequencer_factory(), /*shard=*/0, /*capture_trace=*/false, &hub);
  sequencer_monitors_clean(group, monitors, rt_drive(ex));
}

}  // namespace
}  // namespace msw
