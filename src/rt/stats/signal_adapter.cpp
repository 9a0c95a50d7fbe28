#include "rt/stats/signal_adapter.hpp"

#include "rt/stats/stats_plane.hpp"
#include "telemetry/stats_io.hpp"

namespace msw {

SignalPlane::ExternalSource rt_signal_source(const ShardStats& stats) {
  return [&stats](SignalVector& v) {
    if (!stats.sealed()) return;
    StatsSnapshot snap;
    stats.snapshot(snap, 0);  // a raced read decodes the last clean image
    if (const StatsSnapshot::Hist* lag = snap.find_hist("rt.loop.lag_us")) {
      v.loop_lag_p99_us = lag->p99;
    }
    if (const StatsSnapshot::Scalar* depth = snap.find_scalar("rt.loop.inbox_depth")) {
      v.inbox_depth = static_cast<double>(depth->value);
    }
  };
}

SignalPlane::ExternalSource rt_signal_source(RtStatsPlane& plane, std::size_t shard) {
  return rt_signal_source(plane.shard(shard));
}

}  // namespace msw
