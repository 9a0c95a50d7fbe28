#include "harness/workload.hpp"

#include <map>
#include <string>

namespace msw {

WorkloadResult run_workload(Simulation& sim, Group& group, const WorkloadConfig& cfg) {
  group.capture().clear();
  Scheduler& sched = sim.scheduler();
  const Time start = sched.now();
  const Time end_sends = start + cfg.duration;
  const auto interval = static_cast<Duration>(1e6 / cfg.rate_per_sender);

  Rng rng = sim.fork_rng();
  std::uint64_t sent = 0;
  for (std::size_t s = 0; s < cfg.senders && s < group.size(); ++s) {
    // A random phase per sender, so senders do not fire in lockstep.
    Time t = start + static_cast<Duration>(rng.below(static_cast<std::uint64_t>(interval)));
    while (t < end_sends) {
      sched.at(t, [&group, s, &sent, body_size = cfg.body_size] {
        Bytes body(body_size, static_cast<Byte>('a' + s % 26));
        group.send(s, std::move(body));
        ++sent;
      });
      if (cfg.poisson) {
        t += std::max<Duration>(1, static_cast<Duration>(
                                       rng.exponential(static_cast<double>(interval))));
      } else {
        t += interval;
      }
    }
  }

  sim.run_until(end_sends + cfg.drain);

  WorkloadResult res;
  res.sent = sent;
  res.delivered = 0;
  for (const auto& e : group.trace()) {
    if (e.is_deliver()) ++res.delivered;
  }
  const TraceLatency tl =
      trace_latency(group.trace(), start + cfg.warmup, end_sends, group.size());
  res.latency_ms = tl.latency_ms;
  res.missing_deliveries = tl.missing_deliveries;
  return res;
}

TraceLatency trace_latency(const Trace& tr, Time window_begin, Time window_end,
                           std::size_t expected_receivers) {
  struct SendInfo {
    Time time;
    std::size_t delivers = 0;
  };
  std::map<MsgId, SendInfo> sends;
  for (const auto& e : tr) {
    if (e.is_send() && e.time >= window_begin && e.time <= window_end) {
      sends.emplace(e.msg, SendInfo{e.time, 0});
    }
  }
  TraceLatency out;
  for (const auto& e : tr) {
    if (!e.is_deliver()) continue;
    auto it = sends.find(e.msg);
    if (it == sends.end()) continue;
    ++it->second.delivers;
    out.latency_ms.add(to_ms(e.time - it->second.time));
  }
  for (const auto& [id, info] : sends) {
    if (info.delivers < expected_receivers) {
      out.missing_deliveries += expected_receivers - info.delivers;
    }
  }
  return out;
}

}  // namespace msw
