// Runtime observability plane (src/rt/stats/): seqlock snapshot integrity
// under write churn, loop-lag instrumentation, snapshot-under-load
// consistency, end-to-end latency accounting, JSONL byte-stability for
// deterministic runs, and the StatsPublisher thread lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/event_loop.hpp"
#include "rt/executor.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/stats/publisher.hpp"
#include "rt/stats/seqlock.hpp"
#include "rt/stats/shard_stats.hpp"
#include "rt/stats/stats_plane.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "stack/stack.hpp"
#include "switch/hybrid.hpp"
#include "telemetry/stats_io.hpp"

#include "helpers.hpp"

namespace msw {
namespace {

Bytes body_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Stops the executor when the scope ends, so an early ASSERT return never
/// destroys a group or transport that the executor's threads still run.
struct StopOnExit {
  Executor& ex;
  ~StopOnExit() { ex.stop(); }
};

/// Spin until `pred` holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ----------------------------------------------------------------- seqlock

TEST(Seqlock, SnapshotsAreNeverTornUnderWriteChurn) {
  constexpr std::size_t kSlots = 64;
  SeqlockBuf buf;
  buf.resize(kSlots);

  // Writer publishes uniform arrays (all slots == k): any mix of two
  // publications in one read is detectable as non-uniformity.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t vals[kSlots];
    for (std::uint64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
      for (auto& v : vals) v = k;
      buf.publish(vals, kSlots);
    }
  });

  std::uint64_t got[kSlots];
  for (int i = 0; i < 20000; ++i) {
    if (!buf.read(got, kSlots)) continue;  // every attempt raced; no claim
    for (std::size_t s = 1; s < kSlots; ++s) {
      ASSERT_EQ(got[s], got[0]) << "torn read at slot " << s;
    }
  }
  stop.store(true);
  writer.join();
  // A tight-loop writer on a loaded machine can race every mid-churn
  // attempt; only a quiescent writer makes a clean read guaranteed.
  ASSERT_TRUE(buf.read(got, kSlots));
  for (std::size_t s = 1; s < kSlots; ++s) {
    ASSERT_EQ(got[s], got[0]) << "torn read at slot " << s;
  }
  EXPECT_GT(buf.generation(), 0u);
}

TEST(Seqlock, GenerationCountsCompletedPublications) {
  SeqlockBuf buf;
  buf.resize(2);
  const std::uint64_t vals[2] = {3, 4};
  EXPECT_EQ(buf.generation(), 0u);
  buf.publish(vals, 2);
  buf.publish(vals, 2);
  EXPECT_EQ(buf.generation(), 2u);
  std::uint64_t got[2];
  EXPECT_TRUE(buf.read(got, 2));
  EXPECT_EQ(got[0], 3u);
  EXPECT_EQ(got[1], 4u);
}

// -------------------------------------------------------------- shard stats

#if MSW_RT_STATS_ENABLED
TEST(ShardStats, LoopLagFiresOnDelayedTimer) {
  EventLoop loop;
  ShardStats ss(loop, 0);
  ss.seal();
  // A timer whose deadline is already 60 ms in the past fires on the first
  // loop iteration with at least that much lag. The observer records the
  // lag before the callback runs, so the in-callback flush publishes it.
  loop.add_timer(EventLoop::now_ns() - 60'000'000, [&] {
    ss.flush();
    loop.stop();
  });
  loop.run();

  StatsSnapshot snap;
  ASSERT_TRUE(ss.snapshot(snap, 0));
  const auto* lag = snap.find_hist("rt.loop.lag_us");
  ASSERT_NE(lag, nullptr);
  EXPECT_GE(lag->count, 1u);
  EXPECT_GE(lag->max, 50'000u);  // 60 ms late, in µs, with scheduling slop
}
#endif

TEST(ShardStats, SnapshotDecodesLoopHealthCounters) {
  EventLoop loop;
  ShardStats ss(loop, 3);
  EXPECT_EQ(ss.source(), "shard3");
  ss.seal();
  std::thread runner([&] { loop.run(); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) loop.post([&ran] { ++ran; });
  ASSERT_TRUE(eventually([&] { return ran.load() == 50; }));
  std::atomic<bool> flushed{false};
  loop.post([&] {
    ss.flush();
    flushed.store(true);
  });
  ASSERT_TRUE(eventually([&] { return flushed.load(); }));
  loop.stop();
  runner.join();

  StatsSnapshot snap;
  ASSERT_TRUE(ss.snapshot(snap, 42));
  EXPECT_EQ(snap.t_us, 42u);
  const auto* tasks = snap.find_scalar("rt.loop.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_GE(tasks->value, 50u);
#if MSW_RT_STATS_ENABLED
  // The backlog probe is consumer-side (drained-per-pass); at least one
  // pass drained at least one task, so the HWM is >= 1.
  const auto* hwm = snap.find_scalar("rt.loop.inbox_hwm");
  ASSERT_NE(hwm, nullptr);
  EXPECT_GE(hwm->value, 1u);
#endif
}

TEST(ShardStats, SnapshotsNeverGoBackwardsUnderContinuousPublishing) {
  // A writer that publishes the whole registry back to back keeps a
  // publication open much of the time, so a read can race every attempt.
  // Such a read must decode the last clean image, never an uncertified one:
  // a counter read by successive snapshots never goes backwards.
  EventLoop loop;  // never run: one thread at a time stands in for its thread
  ShardStats ss(loop, 0);
  std::uint64_t published = 0;
  ss.registry().attach_counter("test.published", &published);
  ss.seal();
  // A first clean image, read while nothing publishes.
  for (int i = 0; i < 100; ++i) {
    ++published;
    ss.flush();
  }
  StatsSnapshot first;
  ASSERT_TRUE(ss.snapshot(first, 0));
  std::uint64_t last = first.find_scalar("test.published")->value;
  ASSERT_EQ(last, 100u);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> flushes{0};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ++published;
      ss.flush();
      flushes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  struct JoinOnExit {
    std::atomic<bool>& stop;
    std::thread& t;
    ~JoinOnExit() {
      stop.store(true);
      if (t.joinable()) t.join();
    }
  } join_on_exit{stop, writer};

  // Read only once the writer is publishing, and while it still is.
  while (flushes.load(std::memory_order_relaxed) < 1000) std::this_thread::yield();
  for (int i = 0; i < 5000; ++i) {
    StatsSnapshot snap;
    ss.snapshot(snap, 0);
    const auto* c = snap.find_scalar("test.published");
    ASSERT_NE(c, nullptr);
    ASSERT_GE(c->value, last) << "counter went backwards at read " << i;
    last = c->value;
  }
  stop.store(true);
  writer.join();
  // With the writer quiet, a read is clean and current.
  StatsSnapshot snap;
  ASSERT_TRUE(ss.snapshot(snap, 0));
  EXPECT_EQ(snap.find_scalar("test.published")->value, published);
}

// -------------------------------------------------------------- stats plane

TEST(RtStatsPlane, SnapshotUnderLoadIsConsistent) {
  constexpr std::size_t kN = 4;
  constexpr std::size_t kMsgs = 100;
  Executor ex(2);
  LoopbackTransport tr(ex);
  RtStatsPlane plane(ex, &tr, RtStatsConfig{5 * kMillisecond});
  Group group(tr, kN, make_reliable_fifo_factory(), /*shard=*/0);
  plane.attach_group(group, "g0", /*sample_shift=*/0);  // exact accounting
  const StopOnExit stop_on_exit{ex};
  ex.start();
  plane.start();
  group.start();

  for (std::size_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < kN; ++i) {
      testing::post_send(group, i, body_of("m" + std::to_string(m)));
    }
  }

  // Collect concurrently with the traffic: every snapshot must be
  // internally consistent (histogram count == sum of its buckets) and
  // counters must be monotone across snapshots.
  std::uint64_t last_tasks = 0;
  const std::uint64_t expect = std::uint64_t{kN} * kN * kMsgs;
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<StatsSnapshot> snaps = plane.collect();
    ASSERT_EQ(snaps.size(), 2u);
    std::uint64_t tasks = 0;
    for (const StatsSnapshot& s : snaps) {
      for (const StatsSnapshot::Hist& h : s.hists) {
        std::uint64_t in_buckets = 0;
        for (const std::uint64_t b : h.buckets) in_buckets += b;
        ASSERT_EQ(in_buckets, h.count) << h.name << " torn";
      }
      if (const auto* t = s.find_scalar("rt.loop.tasks")) tasks += t->value;
    }
    ASSERT_GE(tasks, last_tasks) << "counter went backwards";
    last_tasks = tasks;
    if (group.total_delivered() >= expect) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(eventually([&] { return group.total_delivered() >= expect; }));
  ex.stop();

  plane.flush_all();
  const std::vector<StatsSnapshot> final_snaps = plane.collect();
  const StatsSnapshot transport = plane.transport_snapshot();
  EXPECT_EQ(transport.source, "transport");
  const auto* delivered = transport.find_scalar("rt.net.delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_GT(delivered->value, 0u);
#if MSW_RT_STATS_ENABLED
  const StatsSnapshot::Hist e2e = merge_hists(final_snaps, "rt.latency_us.");
  EXPECT_EQ(e2e.count, expect);
#endif
}

#if MSW_RT_STATS_ENABLED
TEST(RtStatsPlane, LatencyAccountsEveryDelivery) {
  constexpr std::size_t kN = 3;
  constexpr std::size_t kMsgs = 50;
  Executor ex(1);
  LoopbackTransport tr(ex);
  RtStatsPlane plane(ex, &tr);
  Group group(tr, kN, make_reliable_fifo_factory());
  // Default name ("g0"); shift 0 so every delivery must be accounted.
  LatencyTracker& lat = plane.attach_group(group, {}, /*sample_shift=*/0);
  const StopOnExit stop_on_exit{ex};
  ex.start();
  plane.start();
  group.start();
  for (std::size_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < kN; ++i) testing::post_send(group, i, body_of("x"));
  }
  const std::uint64_t expect = std::uint64_t{kN} * kN * kMsgs;
  ASSERT_TRUE(eventually([&] { return group.total_delivered() >= expect; }));
  ex.stop();

  // Every delivery matched a stamp: nothing untracked, nothing open.
  EXPECT_EQ(lat.hist().count(), expect);
  EXPECT_EQ(lat.untracked(), 0u);
  EXPECT_EQ(lat.open(), 0u);
  EXPECT_GE(lat.hist().min(), 0u);
  EXPECT_GT(lat.hist().max(), 0u);  // a real medium takes nonzero wall time
  EXPECT_LE(lat.hist().p50(), lat.hist().p99());

  plane.flush_all();
  const std::vector<StatsSnapshot> snaps = plane.collect();
  const auto* h = snaps[0].find_hist("rt.latency_us.g0");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, expect);
}

TEST(LatencyTracker, SamplingStampsOneInTwoToTheShift) {
  MetricsRegistry reg;
  LatencyTracker lat(reg, "s", /*fanout=*/1, /*sample_shift=*/4);
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_EQ(lat.sampled(seq), (seq & 15) == 0) << seq;
    lat.on_send(1, seq, static_cast<Time>(10));
    lat.on_deliver(1, seq, static_cast<Time>(25));
  }
  // 64 seqs at 1/16: exactly 0, 16, 32, 48 were stamped and matched.
  EXPECT_EQ(lat.hist().count(), 4u);
  EXPECT_EQ(lat.hist().min(), 15u);
  EXPECT_EQ(lat.hist().max(), 15u);
  EXPECT_EQ(lat.untracked(), 0u);  // unsampled deliveries are no-ops, not misses
  EXPECT_EQ(lat.open(), 0u);

  // A sampled delivery with no stamp IS a miss.
  lat.on_deliver(2, 0, static_cast<Time>(30));
  EXPECT_EQ(lat.untracked(), 1u);
}

TEST(LatencyTracker, EvictionUnderOverloadIsCountedNotSilent) {
  MetricsRegistry reg;
  // Fanout 2, shift 0: leave many entries open to force probe-window
  // evictions; the table holds 4096 slots with a probe window of 8.
  LatencyTracker lat(reg, "o", /*fanout=*/2, /*sample_shift=*/0);
  constexpr std::uint64_t kOpens = 8192;  // 2x table capacity
  for (std::uint64_t seq = 0; seq < kOpens; ++seq) {
    lat.on_send(1, seq, static_cast<Time>(seq));
  }
  EXPECT_LE(lat.open(), std::size_t{4096});
  // Deliver everything twice: evicted stamps miss (untracked), surviving
  // stamps retire. Accounting stays exact either way.
  std::uint64_t tracked = 0;
  for (std::uint64_t seq = 0; seq < kOpens; ++seq) {
    lat.on_deliver(1, seq, static_cast<Time>(seq + 100));
    lat.on_deliver(1, seq, static_cast<Time>(seq + 100));
  }
  tracked = lat.hist().count();
  EXPECT_EQ(tracked + lat.untracked(), 2 * kOpens);
  EXPECT_GT(lat.untracked(), 0u);  // overload really did evict
  EXPECT_EQ(lat.open(), 0u);
  EXPECT_EQ(lat.hist().min(), 100u);
  EXPECT_EQ(lat.hist().max(), 100u);
}
#endif

// ------------------------------------------------------- JSONL stability

TEST(StatsIo, GoldenLineFormatIsPinned) {
  MetricsRegistry reg;
  reg.counter("c").inc(2);
  reg.gauge("g").set(7);
  reg.histogram("h").record(5);
  const StatsSnapshot snap = snapshot_from_registry("src", 123, reg);
  std::ostringstream os;
  write_stats_line(os, snap);
  // Byte-for-byte: key order is registration order, doubles are fixed
  // 3-decimal, single-value percentiles clamp to the value.
  EXPECT_EQ(os.str(),
            "{\"t_us\":123,\"src\":\"src\",\"metrics\":{\"c\":2,\"g\":7,\"g.max\":7},"
            "\"hist\":{\"h\":{\"count\":1,\"min\":5,\"max\":5,\"mean\":5.000,"
            "\"p50\":5.000,\"p99\":5.000,\"p999\":5.000}}}\n");
}

/// One deterministic stats line: stacks over the simulated Network with a
/// LatencyTracker stamped from sim time, serialized after a fixed workload.
std::string deterministic_stats_line() {
  Simulation sim(/*seed=*/7);
  Network net(sim.scheduler(), sim.fork_rng(), testing::lossy_net(0.02));
  constexpr std::size_t kN = 3;
  const LayerFactory factory = make_reliable_fifo_factory();
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < kN; ++i) members.push_back(net.add_node());

  MetricsRegistry reg;
  LatencyTracker lat(reg, "sim", kN);
  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < kN; ++i) {
    stacks.push_back(std::make_unique<Stack>(net, members[i], members,
                                             factory(members[i], members), sim.fork_rng()));
    stacks.back()->set_on_deliver(
        [&lat, &net](const MsgId& id, std::span<const Byte>) {
          if (id.kind == MsgId::Kind::kData) {
            lat.on_deliver(id.sender, id.seq, net.now());
          }
        });
  }
  for (auto& s : stacks) s->start();
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < kN; ++i) {
      lat.on_send(members[i].v, stacks[i]->sent(), net.now());
      stacks[i]->send(body_of("r" + std::to_string(round)));
    }
    sim.run_for(5 * kMillisecond);
  }
  sim.run_for(2 * kSecond);

  const StatsSnapshot snap =
      snapshot_from_registry("sim", static_cast<std::uint64_t>(sim.now()), reg);
  std::ostringstream os;
  write_stats_line(os, snap);
  return os.str();
}

TEST(StatsIo, DeterministicSimRunYieldsByteIdenticalLines) {
  const std::string a = deterministic_stats_line();
  const std::string b = deterministic_stats_line();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The line is live, not vacuous: the sim's latencies actually landed.
  EXPECT_NE(a.find("\"rt.latency_us.sim\":{\"count\":"), std::string::npos) << a;
  EXPECT_EQ(a.find("\"count\":0,"), std::string::npos) << a;
}

// --------------------------------------------------------------- publisher

TEST(StatsPublisher, WritesJsonlTicksAndStopsCleanly) {
  constexpr std::size_t kN = 3;
  Executor ex(2);
  LoopbackTransport tr(ex);
  RtStatsPlane plane(ex, &tr, RtStatsConfig{5 * kMillisecond});
  Group group(tr, kN, make_reliable_fifo_factory(), /*shard=*/1);
  plane.attach_group(group, {}, /*sample_shift=*/0);
  ex.start();
  plane.start();
  group.start();

  std::ostringstream jsonl;
  StatsPublisherConfig cfg;
  cfg.interval = 10 * kMillisecond;
  cfg.jsonl_stream = &jsonl;
  StatsPublisher pub(plane, cfg);
  pub.start();

  for (std::size_t m = 0; m < 50; ++m) {
    for (std::size_t i = 0; i < kN; ++i) testing::post_send(group, i, body_of("p"));
  }
  const std::uint64_t expect = std::uint64_t{kN} * kN * 50;
  ASSERT_TRUE(eventually([&] { return group.total_delivered() >= expect; }));
  ASSERT_TRUE(eventually([&] { return pub.ticks() >= 2; }));
  pub.stop();
  pub.stop();  // idempotent
  ex.stop();

  const std::string text = jsonl.str();
  // Each tick emits one line per shard plus the transport totals line.
  EXPECT_GE(pub.ticks(), 2u);
  EXPECT_NE(text.find("\"src\":\"shard0\""), std::string::npos);
  EXPECT_NE(text.find("\"src\":\"shard1\""), std::string::npos);
  EXPECT_NE(text.find("\"src\":\"transport\""), std::string::npos);
  EXPECT_NE(text.find("\"rt.net.delivered\""), std::string::npos);
  // Every line is a complete object.
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_GE(count, 3u * pub.ticks());
}

}  // namespace
}  // namespace msw
