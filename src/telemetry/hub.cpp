#include "telemetry/hub.hpp"

#include <algorithm>

#include "net/transport.hpp"

namespace msw {

void TelemetryHub::attach_transport(const Transport& transport) {
  if (&transport == transport_) return;
  transport_ = &transport;
  transport.bind_metrics(global_);
  for (auto& [node, tracer] : tracers_) {
    tracer->configure(&names_, clock_, node, transport_);
  }
}

void TelemetryHub::enable_tracing(std::size_t ring_capacity) {
  tracing_ = true;
  ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  for (auto& [node, tracer] : tracers_) {
    if (!tracer->enabled()) tracer->enable(ring_capacity_);
  }
}

void TelemetryHub::attach_sink(TelemetrySink* sink) {
  sink_ = sink;
  for (auto& [node, tracer] : tracers_) tracer->set_sink(sink_);
}

Tracer& TelemetryHub::tracer(std::uint32_t node) {
  auto it = tracers_.find(node);
  if (it == tracers_.end()) {
    it = tracers_.emplace(node, std::make_unique<Tracer>()).first;
    it->second->configure(&names_, clock_, node, transport_);
    if (tracing_) it->second->enable(ring_capacity_);
    if (sink_) it->second->set_sink(sink_);
  }
  return *it->second;
}

MetricsRegistry& TelemetryHub::node_metrics(std::uint32_t node) {
  auto it = node_metrics_.find(node);
  if (it == node_metrics_.end()) {
    it = node_metrics_.emplace(node, std::make_unique<MetricsRegistry>()).first;
  }
  return *it->second;
}

std::vector<std::uint32_t> TelemetryHub::nodes() const {
  std::vector<std::uint32_t> out;
  for (const auto& [node, tracer] : tracers_) out.push_back(node);
  for (const auto& [node, reg] : node_metrics_) {
    if (tracers_.count(node) == 0) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const Tracer* TelemetryHub::find_tracer(std::uint32_t node) const {
  const auto it = tracers_.find(node);
  return it == tracers_.end() ? nullptr : it->second.get();
}

const MetricsRegistry* TelemetryHub::find_node_metrics(std::uint32_t node) const {
  const auto it = node_metrics_.find(node);
  return it == node_metrics_.end() ? nullptr : it->second.get();
}

MetricsRegistry TelemetryHub::aggregate_metrics() const {
  MetricsRegistry total;
  total.aggregate(global_);
  for (const auto& [node, reg] : node_metrics_) total.aggregate(*reg);
  return total;
}

std::size_t TelemetryHub::total_events() const {
  std::size_t n = 0;
  for (const auto& [node, tracer] : tracers_) {
    if (tracer->ring()) n += tracer->ring()->size();
  }
  return n;
}

}  // namespace msw
