#include "rt/rt_group.hpp"

#include <future>

#include "rt/stats/latency.hpp"
#include "telemetry/hub.hpp"
#include "util/rng.hpp"

namespace msw {

RtGroup::RtGroup(ThreadedTransport& transport, std::size_t n, const LayerFactory& factory,
                 std::size_t shard, bool capture_trace, TelemetryHub* hub, std::uint64_t seed)
    : transport_(transport), shard_(shard) {
  if (hub != nullptr) {
    // Runtime runs stamp telemetry with wall-clock microseconds since
    // transport construction. Attach before any tracer exists so every
    // event carries the wall domain.
    hub->attach_clock(&transport, ClockDomain::kWall);
  }
  members_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) members_.push_back(transport.add_node(shard));
  if (hub != nullptr) {
    // Shard pinning feeds the Chrome exporter's per-shard flight view.
    for (const NodeId m : members_) {
      hub->set_node_shard(m.v, static_cast<std::uint32_t>(shard));
    }
  }
  Rng root(seed);
  stacks_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stacks_.push_back(std::make_unique<Stack>(transport, members_[i], members_,
                                              factory(members_[i], members_), root.split(),
                                              capture_trace ? &capture_ : nullptr, hub));
  }
}

RtGroup::~RtGroup() = default;

void RtGroup::post(std::function<void()> fn) {
  transport_.post(members_.front(), std::move(fn));
}

void RtGroup::call(std::function<void()> fn) {
  EventLoop& loop = transport_.loop_of(members_.front());
  // Inline when waiting would deadlock: already on the shard thread, or the
  // executor is stopped (wiring phase / post-join teardown, where the
  // caller is the only thread touching the stacks anyway).
  if (loop.on_loop_thread() || !transport_.executor().running()) {
    fn();
    return;
  }
  std::promise<void> done;
  std::future<void> wait = done.get_future();
  loop.post([&fn, &done] {
    fn();
    done.set_value();
  });
  wait.get();
}

void RtGroup::start() {
  call([this] {
    for (auto& s : stacks_) s->start();
  });
}

void RtGroup::attach_latency(LatencyTracker* t) {
#if MSW_RT_STATS_ENABLED
  latency_ = t;
  for (auto& s : stacks_) {
    // The tracker's sample mask gates the hook inline inside Stack, so an
    // unsampled delivery (the common case at sample_shift > 0) costs one
    // compare and never reaches this lambda or the clock read.
    s->set_on_deliver(
        [this](const MsgId& id, std::span<const Byte>) {
          if (id.kind == MsgId::Kind::kData) {
            latency_->on_deliver(id.sender, id.seq, transport_.now());
          }
        },
        t->sample_mask());
  }
#else
  (void)t;
#endif
}

void RtGroup::send(std::size_t i, Bytes body) {
  post([this, i, body = std::move(body)]() mutable {
#if MSW_RT_STATS_ENABLED
    if (latency_ != nullptr) {
      // stacks_[i]->sent() is the seq the imminent send will be assigned;
      // stamping here (on the shard thread, just before submission) starts
      // the measurement where the message enters the stack, without
      // touching Stack.
      const std::uint64_t seq = stacks_[i]->sent();
      if (latency_->sampled(seq)) {
        latency_->on_send(members_[i].v, seq, transport_.now());
      }
    }
#endif
    stacks_[i]->send(std::move(body));
  });
}

void RtGroup::send_batch(std::size_t i, std::vector<Bytes> bodies) {
  post([this, i, bodies = std::move(bodies)]() mutable {
#if MSW_RT_STATS_ENABLED
    if (latency_ != nullptr) {
      const std::uint64_t base = stacks_[i]->sent();
      const Time now = transport_.now();
      for (std::size_t k = 0; k < bodies.size(); ++k) {
        if (latency_->sampled(base + k)) {
          latency_->on_send(members_[i].v, base + k, now);
        }
      }
    }
#endif
    stacks_[i]->send_batch(std::move(bodies));
  });
}

std::uint64_t RtGroup::total_delivered() {
  std::uint64_t n = 0;
  call([this, &n] {
    for (auto& s : stacks_) n += s->delivered();
  });
  return n;
}

std::uint64_t RtGroup::total_sent() {
  std::uint64_t n = 0;
  call([this, &n] {
    for (auto& s : stacks_) n += s->sent();
  });
  return n;
}

std::uint64_t RtGroup::delivered_at(std::size_t i) {
  std::uint64_t n = 0;
  call([this, i, &n] { n = stacks_[i]->delivered(); });
  return n;
}

}  // namespace msw
