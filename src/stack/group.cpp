#include "stack/group.hpp"

#include "telemetry/hub.hpp"
#include "telemetry/latency.hpp"

namespace msw {

Group::Group(Transport& transport, std::size_t n, const LayerFactory& factory, std::size_t shard,
             bool capture_trace, TelemetryHub* hub, std::uint64_t seed)
    : transport_(transport), shard_(shard) {
  if (hub != nullptr) hub->attach_clock(&transport);
  Rng root(seed);
  build(n, factory, capture_trace, hub, root);
  if (hub != nullptr) {
    for (const NodeId m : members_) hub->set_node_shard(m.v, static_cast<std::uint32_t>(shard));
  }
}

Group::Group(Simulation& sim, Network& net, std::size_t n, const LayerFactory& factory,
             bool capture_trace)
    : transport_(net), shard_(0) {
  build(n, factory, capture_trace, &sim.telemetry(), sim.rng());
}

void Group::build(std::size_t n, const LayerFactory& factory, bool capture_trace,
                  TelemetryHub* hub, Rng& root) {
  if (hub != nullptr) hub->attach_transport(transport_);
  members_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) members_.push_back(transport_.add_node(shard_));
  stacks_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stacks_.push_back(std::make_unique<Stack>(transport_, members_[i], members_,
                                              factory(members_[i], members_), root.split(),
                                              capture_trace ? &capture_ : nullptr, hub));
  }
}

void Group::start() {
  call([this] {
    for (auto& s : stacks_) s->start();
  });
}

std::uint64_t Group::total_delivered() const {
  std::uint64_t n = 0;
  call([this, &n] {
    for (const auto& s : stacks_) n += s->delivered();
  });
  return n;
}

std::uint64_t Group::total_sent() const {
  std::uint64_t n = 0;
  call([this, &n] {
    for (const auto& s : stacks_) n += s->sent();
  });
  return n;
}

std::uint64_t Group::delivered_at(std::size_t i) const {
  std::uint64_t n = 0;
  call([this, i, &n] { n = stacks_[i]->delivered(); });
  return n;
}

void Group::attach_latency(LatencyTracker* t) {
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

void Group::stamp_sends(std::size_t i, std::size_t count) {
  // sent() is the seq the next send will be assigned, so stamping just
  // before submission starts the measurement where the message enters the
  // stack, without touching Stack.
  const std::uint64_t first = stacks_[i]->sent();
  for (std::uint64_t seq = first; seq < first + count; ++seq) {
    if (latency_->sampled(seq)) latency_->on_send(members_[i].v, seq, transport_.now());
  }
}

}  // namespace msw
