#include "telemetry/tracer.hpp"

#include "net/transport.hpp"

namespace msw {

Tracer& Tracer::disabled() {
  static Tracer t;
  return t;
}

void Tracer::configure(NameTable* names, const TelemetryClock* clock, std::uint32_t node,
                       const Transport* transport) {
  names_ = names;
  clock_ = clock;
  node_ = node;
  transport_ = transport;
}

void Tracer::enable(std::size_t ring_capacity) {
  ring_ = std::make_unique<EventRing>(ring_capacity);
}

void Tracer::emit(EventKind kind, std::uint32_t name, TelemetryTrack track, std::uint64_t arg,
                  std::uint64_t arg2) {
  TelemetryEvent e;
  e.t = clock_ ? clock_->telemetry_now() : 0;
  e.epoch = epoch_;
  e.incarnation = transport_ ? transport_->incarnation(NodeId{node_}) : 0;
  e.arg = arg;
  e.arg2 = arg2;
  e.name = name;
  e.node = node_;
  e.kind = kind;
  e.track = track;
  if (ring_) ring_->push(e);
  if (sink_) sink_->on_telemetry(e);
}

}  // namespace msw
