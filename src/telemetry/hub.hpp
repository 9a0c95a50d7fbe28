// Simulation-wide telemetry aggregation point.
//
// The hub owns one MetricsRegistry per node (handed to the node's Stack at
// construction), one global registry (network + scheduler counters attach
// here), one Tracer per node, and the shared NameTable. A Simulation owns
// exactly one hub; exporters (telemetry/export.hpp) walk it to produce the
// JSONL dump, the Chrome trace, the metrics summary, and the flight
// record.
//
// Tracing is off by default — tracers exist but have no ring, so span
// emission is a single branch. enable_tracing() arms every tracer (current
// and future) with a bounded ring of the given capacity.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace msw {

class Transport;

class TelemetryHub {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  TelemetryHub() = default;
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Clock used to stamp events: the Simulation's scheduler (simulated
  /// time) or a transport's clock (wall time on threads). Events emitted
  /// by tracers created before this call keep the old clock, so attach
  /// before wiring.
  void attach_clock(const TelemetryClock* clock) { clock_ = clock; }
  /// Transport whose nodes the tracers stamp with their incarnations, and
  /// whose own counters (Transport::bind_metrics) join the global registry.
  /// Attaching the attached transport again does nothing; last writer wins
  /// when a simulation runs several networks. Group calls this.
  void attach_transport(const Transport& transport);

  /// Arm every tracer with a bounded per-node ring.
  void enable_tracing(std::size_t ring_capacity = kDefaultRingCapacity);
  bool tracing() const { return tracing_; }
  std::size_t ring_capacity() const { return ring_capacity_; }

  /// Attach a streaming sink to every tracer (current and future). The sink
  /// sees each event at emission time regardless of whether rings are armed;
  /// it must outlive the hub or be detached first. One sink at a time.
  void attach_sink(TelemetrySink* sink);
  void detach_sink() { attach_sink(nullptr); }
  TelemetrySink* sink() const { return sink_; }

  /// Per-node accessors create on first use; references stay stable.
  Tracer& tracer(std::uint32_t node);
  MetricsRegistry& node_metrics(std::uint32_t node);
  /// Simulation-scope registry (network, scheduler).
  MetricsRegistry& global() { return global_; }
  const MetricsRegistry& global() const { return global_; }

  NameTable& names() { return names_; }
  const NameTable& names() const { return names_; }

  /// Executor shard a node is pinned to in runtime (wall-domain) runs.
  /// A Group built over a Transport with this hub fills it during wiring;
  /// the Chrome exporter uses it to lay rt spans out on one track group per
  /// EventLoop thread (the per-shard flight view). Empty for groups built
  /// by the simulator's constructor.
  void set_node_shard(std::uint32_t node, std::uint32_t shard) { node_shards_[node] = shard; }
  const std::map<std::uint32_t, std::uint32_t>& node_shards() const { return node_shards_; }

  /// Node ids with any telemetry state, ascending.
  std::vector<std::uint32_t> nodes() const;
  const Tracer* find_tracer(std::uint32_t node) const;
  const MetricsRegistry* find_node_metrics(std::uint32_t node) const;

  /// Sum of all per-node registries plus the global one — the
  /// per-Simulation aggregate view.
  MetricsRegistry aggregate_metrics() const;

  /// Total events currently held across all rings.
  std::size_t total_events() const;

 private:
  NameTable names_;
  MetricsRegistry global_;
  std::map<std::uint32_t, std::unique_ptr<Tracer>> tracers_;
  std::map<std::uint32_t, std::unique_ptr<MetricsRegistry>> node_metrics_;
  std::map<std::uint32_t, std::uint32_t> node_shards_;
  const TelemetryClock* clock_ = nullptr;
  const Transport* transport_ = nullptr;
  TelemetrySink* sink_ = nullptr;
  bool tracing_ = false;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
};

}  // namespace msw
