#include "rt/stats/stats_plane.hpp"

#include "stack/group.hpp"

namespace msw {

RtStatsPlane::RtStatsPlane(Executor& ex, ThreadedTransport* transport, RtStatsConfig cfg)
    : ex_(ex), transport_(transport), cfg_(cfg) {
  shards_.reserve(ex.shards());
  for (std::size_t s = 0; s < ex.shards(); ++s) {
    shards_.push_back(std::make_unique<ShardStats>(ex.loop(s), s));
  }
}

LatencyTracker& RtStatsPlane::attach_group(Group& g, std::string name,
                                           unsigned sample_shift) {
  if (name.empty()) name = "g" + std::to_string(trackers_.size());
  trackers_.emplace_back(shards_[g.shard()]->registry(), name, g.size(), sample_shift);
  g.attach_latency(&trackers_.back());
  return trackers_.back();
}

void RtStatsPlane::arm_flush(std::size_t s) {
  // Runs on shard s's loop thread (via start()'s post, then re-armed from
  // the timer itself). The plane outlives Executor::stop(), so `this` stays
  // valid for every firing; closures pending at teardown are destroyed
  // unrun with the loop.
  const std::int64_t interval_ns = cfg_.flush_interval * 1000;
  ex_.loop(s).add_timer(EventLoop::now_ns() + interval_ns, [this, s] {
    shards_[s]->flush();
    arm_flush(s);
  });
}

void RtStatsPlane::start() {
  for (auto& st : shards_) {
    if (!st->sealed()) st->seal();
  }
  started_ = true;
  if (!ex_.running()) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ex_.loop(s).post([this, s] {
      shards_[s]->flush();
      arm_flush(s);
    });
  }
}

void RtStatsPlane::flush_all() {
  for (auto& st : shards_) {
    if (!st->sealed()) st->seal();
    st->flush();
  }
}

std::uint64_t RtStatsPlane::t_us() const {
  if (transport_ == nullptr) return 0;
  const Time t = transport_->now();
  return static_cast<std::uint64_t>(t < 0 ? 0 : t);
}

std::string RtStatsPlane::backend() const {
  return transport_ == nullptr ? "none" : transport_->backend_name();
}

std::vector<StatsSnapshot> RtStatsPlane::collect() const {
  const std::uint64_t t = t_us();
  std::vector<StatsSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& st : shards_) {
    StatsSnapshot snap;
    st->snapshot(snap, t);
    out.push_back(std::move(snap));
  }
  return out;
}

StatsSnapshot RtStatsPlane::transport_snapshot() const {
  StatsSnapshot snap;
  snap.source = "transport";
  snap.t_us = t_us();
  if (transport_ != nullptr) {
    snap.scalars.push_back({"rt.net.sent", transport_->packets_sent()});
    snap.scalars.push_back({"rt.net.delivered", transport_->packets_delivered()});
    snap.scalars.push_back({"rt.net.dropped", transport_->packets_dropped()});
  }
  return snap;
}

}  // namespace msw
