// Per-shard stats: one MetricsRegistry owned by (and written from) a
// shard's loop thread, published to readers through a seqlock buffer.
//
// Write side (loop thread):
//   - on_timer_lag() records scheduled-vs-actual timer fire deltas into the
//     rt.loop.lag_us histogram (installed as the loop's LoopObserver).
//   - Group latency trackers (telemetry/latency.hpp) record end-to-end
//     deltas into rt.latency_us.* histograms on this registry — safe with
//     no locks because the group is pinned to this shard.
//   - flush() mirrors the EventLoop's health counters (tasks, timers,
//     wakeups, drain-pass inbox backlog + high-watermark, timer-heap size)
//     into the registry and publishes the whole flattened registry through
//     the seqlock. The stats plane arms a self-re-arming flush timer per
//     shard. Every counter is consumer-side: producers posting into the
//     loop pay nothing for any of this.
//
// Read side (StatsPublisher thread, or anyone): snapshot() copies the last
// published flat image (retrying if it races a publish — the writer never
// waits) and decodes it into a StatsSnapshot using the frozen layout. It
// never decodes an image the seqlock did not certify: when every attempt
// races, it decodes the last clean image instead, so counters read by any
// sequence of snapshots never go backwards.
//
// Lifecycle: construct + register instruments (attach_group) during the
// single-threaded wiring phase, seal() before the first flush, then the
// registry's instrument set is frozen — values keep changing, names never.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "rt/event_loop.hpp"
#include "rt/stats/seqlock.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stats_io.hpp"

namespace msw {

class ShardStats final : public LoopObserver {
 public:
  /// Registers the loop-health instruments and installs itself as `loop`'s
  /// observer. Wiring phase only.
  ShardStats(EventLoop& loop, std::size_t shard);

  std::size_t shard() const { return shard_; }
  std::string source() const { return "shard" + std::to_string(shard_); }

  /// Additional instruments (latency trackers) register here before seal().
  MetricsRegistry& registry() { return reg_; }

  // LoopObserver (loop thread).
  void on_timer_lag(std::int64_t lag_ns) override {
    lag_us_->record(static_cast<std::uint64_t>(lag_ns < 0 ? 0 : lag_ns) / 1000);
  }

  /// Freeze the instrument set and size the publication buffer. Call once,
  /// after all attach_group() calls, before the first flush().
  void seal();
  bool sealed() const { return sealed_; }

  /// Loop thread only: refresh loop-health mirrors and publish the
  /// registry's current values. Wait-free for this thread's other work.
  void flush();

  /// Any thread, after seal(): decode the most recent publication into
  /// `out` (source/t_us set by the caller's wrapper). Returns false when
  /// every read attempt raced a publish; `out` then holds the last image a
  /// snapshot read cleanly (all zeros before the first).
  bool snapshot(StatsSnapshot& out, std::uint64_t t_us) const;

  /// Flat slots one publication carries (valid after seal()).
  std::size_t slots() const { return slots_; }

 private:
  void encode();

  EventLoop& loop_;
  std::size_t shard_;
  MetricsRegistry reg_;

  // Mirrors of EventLoop counters, registered as external views so they
  // export under the uniform namespace; refreshed in flush().
  std::uint64_t m_tasks_ = 0;
  std::uint64_t m_timers_ = 0;
  std::uint64_t m_wakeups_ = 0;
  std::uint64_t m_inbox_hwm_ = 0;

  MetricsRegistry::Gauge* inbox_depth_ = nullptr;
  MetricsRegistry::Gauge* timer_heap_ = nullptr;
  MetricsRegistry::Histogram* lag_us_ = nullptr;

  bool sealed_ = false;
  std::size_t slots_ = 0;
  std::vector<std::uint64_t> scratch_;  // loop-thread encode staging
  SeqlockBuf buf_;
  // Readers only (the writer never takes it): the last certified image.
  mutable std::mutex clean_mu_;
  mutable std::vector<std::uint64_t> clean_;
};

}  // namespace msw
