#include "stack/stack.hpp"

#include "telemetry/hub.hpp"
#include "util/log.hpp"

namespace msw {

Stack::Stack(Transport& transport, NodeId self, std::vector<NodeId> members,
             std::vector<std::unique_ptr<Layer>> layers, Rng rng, TraceCapture* capture,
             TelemetryHub* hub)
    : transport_(transport),
      self_(self),
      members_(std::move(members)),
      rng_(rng),
      capture_(capture) {
  if (hub != nullptr) {
    tracer_ = &hub->tracer(self.v);
    metrics_ = &hub->node_metrics(self.v);
    metrics_->attach_counter("app.sent", &next_seq_);
    metrics_->attach_counter("app.delivered", &delivered_);
    metrics_->attach_counter("stack.decode_drops", &decode_drops_);
    n_app_send_ = tracer_->intern("app.send");
    n_app_deliver_ = tracer_->intern("app.deliver");
  } else {
    tracer_ = &Tracer::disabled();
    metrics_ = nullptr;
  }
  chain_ = std::make_unique<LayerChain>(
      *this, std::move(layers), [this](Message m) { to_network(std::move(m)); },
      [this](Message m) { to_app(std::move(m)); });
  transport_.set_handler(self_, [this](Packet p) { on_packet(std::move(p)); });
  transport_.set_run_handler(
      self_, [this](NodeId src, std::span<const Payload> run) { on_packet_run(src, run); });
}

Stack::~Stack() {
  for (const auto& [tid, token] : timers_) transport_.cancel_timer(self_, token);
  timers_.clear();
}

TimerId Stack::set_timer(Duration delay, std::function<void()> fn) {
  const std::uint64_t tid = next_timer_++;
  // this + id + the layer's std::function: 48 bytes, inside
  // UniqueFunction's inline buffer, so arming a timer never allocates.
  const TransportTimer token =
      transport_.set_timer(self_, delay, [this, tid, fn = std::move(fn)]() {
        timers_.erase(tid);
        fn();
      });
  timers_.emplace(tid, token);
  return TimerId{tid};
}

void Stack::cancel_timer(TimerId id) {
  auto it = timers_.find(id.v);
  if (it == timers_.end()) return;
  transport_.cancel_timer(self_, it->second);
  timers_.erase(it);
}

void Stack::start() { chain_->start(); }

void Stack::send(Bytes body) {
  const MsgId id{self().v, next_seq_++, MsgId::Kind::kData};
  tracer_->instant(n_app_send_, TelemetryTrack::kData, id.seq);
  if (capture_ != nullptr) capture_->record_send(self(), id, body, now());
  Message m = Message::group(std::move(body));
  AppHeader::push(m, AppHeader{AppHeader::Kind::kData, id.sender, id.seq});
  chain_->down_from_top(std::move(m));
}

void Stack::send_batch(std::vector<Bytes> bodies) {
  const bool outermost = !collecting_;
  collecting_ = true;
  for (Bytes& body : bodies) send(std::move(body));
  if (!outermost) return;
  collecting_ = false;
  flush_run();
}

void Stack::to_network(Message m) {
  if (m.is_p2p()) {
    flush_run();
    transport_.send(self_, *m.point_to, std::move(m.data));
  } else if (collecting_) {
    run_.push_back(std::move(m.data));
  } else {
    transport_.multicast(self_, members_, std::move(m.data));
  }
}

void Stack::flush_run() {
  if (run_.empty()) return;
  transport_.multicast_run(self_, members_, run_);
  run_.clear();
}

void Stack::to_app(Message m) {
  AppHeader h;
  try {
    h = AppHeader::pop(m);
  } catch (const DecodeError& e) {
    MSW_LOG(kWarn, "stack", now()) << to_string(self()) << " malformed app header: " << e.what();
    return;
  }
  const MsgId id{h.sender, h.seq,
                 h.kind == AppHeader::Kind::kView ? MsgId::Kind::kView : MsgId::Kind::kData};
  ++delivered_;
  // arg2 carries the sender id with bit 32 flagging view messages, so
  // streaming monitors can reconstruct the full MsgId from the event alone.
  tracer_->instant(n_app_deliver_, TelemetryTrack::kData, id.seq,
                   std::uint64_t{id.sender} |
                       (id.kind == MsgId::Kind::kView ? kDeliverViewFlag : 0));
  if (capture_ != nullptr) capture_->record_deliver(self(), id, m.data.view(), now());
  if (on_deliver_ && (id.seq & deliver_mask_) == 0) on_deliver_(id, m.data.view());
}

void Stack::on_packet_run(NodeId src, std::span<const Payload> run) {
  // Each packet climbs the stack on its own, exactly as if the copies had
  // arrived back to back: a malformed one is dropped alone.
  for (const Payload& p : run) on_packet(Packet{src, p});
}

void Stack::on_packet(Packet p) {
  Message m;
  m.data = std::move(p.data);
  m.wire_src = p.src;
  try {
    chain_->up_from_bottom(std::move(m));
  } catch (const DecodeError& e) {
    // Malformed wire data (corruption, an undefined frame type, or
    // ciphertext decrypted with the wrong key): real stacks drop such
    // packets at the point of failure.
    ++decode_drops_;
    MSW_LOG(kDebug, "stack", now())
        << to_string(self()) << " dropped malformed packet from " << to_string(p.src) << ": "
        << e.what();
  }
}

}  // namespace msw
