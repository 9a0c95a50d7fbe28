// The runtime observability plane: binds an Executor (one ShardStats per
// shard), a ThreadedTransport (traffic totals + the wall clock), and any
// number of Groups (end-to-end latency) into one snapshot surface.
//
// Wiring order, all single-threaded:
//   Executor ex(shards);
//   LoopbackTransport net(ex);            // or Udp
//   RtStatsPlane stats(ex, &net);         // installs loop observers
//   Group g(net, n, factory, shard);
//   stats.attach_group(g, "g0");          // latency histograms on g's shard
//   ex.start(); stats.start(); g.start(); // start() arms flush timers
//   ...
//   ex.stop();                            // then read/collect freely
//
// The plane must outlive Executor::stop(): shard flush timers capture it.
// collect() may run from any thread at any time — that is the point.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/latency.hpp"
#include "rt/stats/shard_stats.hpp"
#include "rt/threaded_transport.hpp"

namespace msw {

class Group;

struct RtStatsConfig {
  /// Shard-local publish cadence: how often each loop thread mirrors its
  /// health counters and publishes through the seqlock.
  Duration flush_interval = 20 * kMillisecond;
};

class RtStatsPlane {
 public:
  /// Installs a ShardStats (and its LoopObserver) on every shard. Wiring
  /// phase only. `transport` may be null (loop health only, no traffic
  /// totals or wall timestamps).
  explicit RtStatsPlane(Executor& ex, ThreadedTransport* transport = nullptr,
                        RtStatsConfig cfg = {});

  RtStatsPlane(const RtStatsPlane&) = delete;
  RtStatsPlane& operator=(const RtStatsPlane&) = delete;

  std::size_t shards() const { return shards_.size(); }
  ShardStats& shard(std::size_t i) { return *shards_[i]; }

  /// Register end-to-end latency tracking for `g` on its shard's registry
  /// (histogram rt.latency_us.<name>). Wiring phase only, before start().
  /// Default name: "g<index>" in attachment order. Latency stamping samples
  /// 1 in 2^sample_shift multicasts (default 1/16 — quantiles are
  /// unaffected, and unsampled deliveries cost one compare, which is what
  /// keeps the instrumented data path inside the 3% overhead budget); pass
  /// 0 for exact every-message accounting (tests).
  LatencyTracker& attach_group(Group& g, std::string name = {},
                               unsigned sample_shift = 4);

  /// Seal every shard's layout and arm the per-shard flush timers (posted
  /// to the running executor; a no-op scheduling-wise if it isn't running —
  /// call flush_all() manually in that case).
  void start();
  bool started() const { return started_; }

  /// Single-threaded contexts only (executor stopped): flush every shard
  /// from the caller's thread so collect() sees current values.
  void flush_all();

  /// Wall-clock µs since transport construction (0 with no transport).
  std::uint64_t t_us() const;
  /// Backend tag for labeling output ("loopback", "udp", "none").
  std::string backend() const;

  /// One consistent-per-shard snapshot each, stamped with t_us(). Any
  /// thread; never blocks writers.
  std::vector<StatsSnapshot> collect() const;
  /// Transport traffic totals as a snapshot (source "transport").
  StatsSnapshot transport_snapshot() const;

 private:
  void arm_flush(std::size_t s);

  Executor& ex_;
  ThreadedTransport* transport_;
  RtStatsConfig cfg_;
  std::vector<std::unique_ptr<ShardStats>> shards_;
  std::deque<LatencyTracker> trackers_;  // deque: stable references
  bool started_ = false;
};

}  // namespace msw
