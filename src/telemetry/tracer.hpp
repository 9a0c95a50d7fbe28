// Per-node span/instant emitter.
//
// A Tracer is cheap enough to hand to every layer unconditionally: while
// tracing is disabled (no ring attached) every emit call is one branch on a
// null pointer, and when the build sets MSW_TELEMETRY_ENABLED=0 the calls
// compile away entirely — the guard for "telemetry adds zero instructions
// to the hot path" builds.
//
// Events are stamped with the hub's clock, the node's current incarnation
// (pulled from the Transport, so the sim's crash/restart boundaries are
// visible in the trace), and the SP epoch last published via set_epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "telemetry/clock.hpp"
#include "telemetry/events.hpp"

#ifndef MSW_TELEMETRY_ENABLED
#define MSW_TELEMETRY_ENABLED 1
#endif

namespace msw {

class Transport;

class Tracer {
 public:
  Tracer() = default;

  /// Shared fallback for stacks wired without telemetry: interning returns
  /// 0, emission is a no-op.
  static Tracer& disabled();

  /// Wire identity and clock sources. `names` may be shared across nodes;
  /// `transport` supplies the incarnation stamp and may be null. The clock
  /// may be a sim scheduler or a wall clock (see telemetry/clock.hpp).
  void configure(NameTable* names, const TelemetryClock* clock, std::uint32_t node,
                 const Transport* transport);

  /// Attach a bounded ring and start recording.
  void enable(std::size_t ring_capacity);
  void disable() { ring_.reset(); }
  bool enabled() const { return ring_ != nullptr; }

  /// Attach a streaming sink (monitors). Independent of the ring: events
  /// flow to the sink even when no ring is armed, so a soak run can monitor
  /// without buffering history. Null detaches.
  void set_sink(TelemetrySink* sink) { sink_ = sink; }
  TelemetrySink* sink() const { return sink_; }

  std::uint32_t node() const { return node_; }
  std::uint32_t intern(std::string_view name) { return names_ ? names_->intern(name) : 0; }

  void set_epoch(std::uint64_t e) { epoch_ = e; }
  std::uint64_t epoch() const { return epoch_; }

#if MSW_TELEMETRY_ENABLED
  void begin(std::uint32_t name, TelemetryTrack track = TelemetryTrack::kData,
             std::uint64_t arg = 0, std::uint64_t arg2 = 0) {
    if (ring_ || sink_) emit(EventKind::kBegin, name, track, arg, arg2);
  }
  void end(std::uint32_t name, TelemetryTrack track = TelemetryTrack::kData,
           std::uint64_t arg = 0, std::uint64_t arg2 = 0) {
    if (ring_ || sink_) emit(EventKind::kEnd, name, track, arg, arg2);
  }
  void instant(std::uint32_t name, TelemetryTrack track = TelemetryTrack::kData,
               std::uint64_t arg = 0, std::uint64_t arg2 = 0) {
    if (ring_ || sink_) emit(EventKind::kInstant, name, track, arg, arg2);
  }
#else
  void begin(std::uint32_t, TelemetryTrack = TelemetryTrack::kData, std::uint64_t = 0,
             std::uint64_t = 0) {}
  void end(std::uint32_t, TelemetryTrack = TelemetryTrack::kData, std::uint64_t = 0,
           std::uint64_t = 0) {}
  void instant(std::uint32_t, TelemetryTrack = TelemetryTrack::kData, std::uint64_t = 0,
               std::uint64_t = 0) {}
#endif

  const EventRing* ring() const { return ring_.get(); }
  const NameTable* names() const { return names_; }

 private:
  void emit(EventKind kind, std::uint32_t name, TelemetryTrack track, std::uint64_t arg,
            std::uint64_t arg2);

  std::unique_ptr<EventRing> ring_;
  TelemetrySink* sink_ = nullptr;
  NameTable* names_ = nullptr;
  const TelemetryClock* clock_ = nullptr;
  const Transport* transport_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint64_t epoch_ = 0;
};

/// RAII span: begins on construction, ends on destruction. For spans that
/// open and close inside one call frame.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::uint32_t name, TelemetryTrack track = TelemetryTrack::kData,
            std::uint64_t arg = 0)
      : t_(t), name_(name), track_(track) {
    t_.begin(name_, track_, arg);
  }
  ~SpanScope() { t_.end(name_, track_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t name_;
  TelemetryTrack track_;
};

}  // namespace msw
