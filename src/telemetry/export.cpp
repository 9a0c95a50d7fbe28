#include "telemetry/export.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

namespace msw {
namespace {

const char* kind_str(EventKind k) {
  switch (k) {
    case EventKind::kBegin:
      return "B";
    case EventKind::kEnd:
      return "E";
    case EventKind::kInstant:
      return "I";
  }
  return "?";
}

const char* track_str(TelemetryTrack t) {
  switch (t) {
    case TelemetryTrack::kData:
      return "data";
    case TelemetryTrack::kControl:
      return "control";
    case TelemetryTrack::kMembership:
      return "membership";
  }
  return "?";
}

/// JSON string escaping for the small, known-safe name set.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

struct MergedEvent {
  TelemetryEvent e;
  std::size_t ring_pos;  // tiebreak within equal timestamps
};

/// Collect every node's events (optionally only the last N per node) in a
/// deterministic order: (time, node, ring position).
std::vector<MergedEvent> merged_events(const TelemetryHub& hub, std::size_t last_n_per_node) {
  std::vector<MergedEvent> out;
  for (const std::uint32_t node : hub.nodes()) {
    const Tracer* tr = hub.find_tracer(node);
    if (tr == nullptr || tr->ring() == nullptr) continue;
    const EventRing& ring = *tr->ring();
    const std::size_t n = ring.size();
    const std::size_t first =
        last_n_per_node > 0 && n > last_n_per_node ? n - last_n_per_node : 0;
    for (std::size_t i = first; i < n; ++i) out.push_back(MergedEvent{ring.at(i), i});
  }
  std::stable_sort(out.begin(), out.end(), [](const MergedEvent& a, const MergedEvent& b) {
    if (a.e.t != b.e.t) return a.e.t < b.e.t;
    if (a.e.node != b.e.node) return a.e.node < b.e.node;
    return a.ring_pos < b.ring_pos;
  });
  return out;
}

void write_event_line(const TelemetryHub& hub, std::ostream& os, const TelemetryEvent& e) {
  os << "{\"t\":" << e.t << ",\"node\":" << e.node << ",\"kind\":\"" << kind_str(e.kind)
     << "\",\"track\":\"" << track_str(e.track) << "\",\"name\":\""
     << json_escape(hub.names().name(e.name)) << "\",\"epoch\":" << e.epoch
     << ",\"inc\":" << e.incarnation << ",\"arg\":" << e.arg;
  // arg2 is omitted when zero so pre-existing golden lines stay byte-stable.
  if (e.arg2 != 0) os << ",\"arg2\":" << e.arg2;
  os << "}\n";
}

void write_registry_json(const MetricsRegistry& reg, std::ostream& os) {
  os << "{";
  bool first = true;
  for (const auto& entry : reg.entries()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(entry.name) << "\":";
    if (const auto* h = reg.histogram_of(entry)) {
      os << "{\"count\":" << h->count() << ",\"mean\":" << h->mean() << ",\"p50\":" << h->p50()
         << ",\"p99\":" << h->p99() << ",\"max\":" << h->max() << "}";
    } else if (const auto* g = reg.gauge_of(entry)) {
      os << "{\"value\":" << g->value() << ",\"max\":" << g->max() << "}";
    } else {
      os << static_cast<std::uint64_t>(reg.value_of(entry));
    }
  }
  os << "}";
}

}  // namespace

void write_events_jsonl(const TelemetryHub& hub, std::ostream& os,
                        std::size_t last_n_per_node) {
  for (const MergedEvent& m : merged_events(hub, last_n_per_node)) {
    write_event_line(hub, os, m.e);
  }
}

void write_chrome_trace(const TelemetryHub& hub, std::ostream& os) {
  const std::vector<MergedEvent> events = merged_events(hub, 0);
  Time horizon = 0;
  for (const MergedEvent& m : events) horizon = std::max(horizon, m.e.t);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) os << ",";
    first = false;
    os << "\n" << line;
  };

  // Process/thread naming metadata: one process per node, one thread per
  // track actually used by that node.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> named_tracks;
  for (const MergedEvent& m : events) {
    const auto key = std::make_pair(m.e.node, static_cast<std::uint8_t>(m.e.track));
    if (std::find(named_tracks.begin(), named_tracks.end(), key) != named_tracks.end()) {
      continue;
    }
    named_tracks.push_back(key);
  }
  std::sort(named_tracks.begin(), named_tracks.end());
  std::uint32_t last_node = ~std::uint32_t{0};
  for (const auto& [node, track] : named_tracks) {
    std::ostringstream line;
    if (node != last_node) {
      line << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << node
           << ",\"tid\":0,\"args\":{\"name\":\"node " << node << "\"}}";
      emit(line.str());
      line.str({});
      last_node = node;
    }
    line << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << node
         << ",\"tid\":" << static_cast<int>(track) << ",\"args\":{\"name\":\""
         << track_str(static_cast<TelemetryTrack>(track)) << "\"}}";
    emit(line.str());
  }

  // Shard flight view: when the hub knows node -> shard pinning (runtime
  // runs — a Group built over a Transport with a hub registers it), every
  // event is mirrored into a "shard k" process (pid = kShardViewPidBase +
  // shard, tid = node), so Perfetto shows one process group per EventLoop
  // thread and shard imbalance reads directly off the wall-clock timeline.
  // Protocol phases of different nodes on one shard can overlap in wall
  // time (they are logical spans, not CPU spans), hence one tid per node
  // inside the shard group rather than a single collapsed track.
  const auto& shard_map = hub.node_shards();
  constexpr std::int64_t kShardViewPidBase = 1'000'000;
  if (!shard_map.empty()) {
    std::vector<std::uint32_t> shard_ids;
    for (const auto& [node, shard] : shard_map) shard_ids.push_back(shard);
    std::sort(shard_ids.begin(), shard_ids.end());
    shard_ids.erase(std::unique(shard_ids.begin(), shard_ids.end()), shard_ids.end());
    for (const std::uint32_t shard : shard_ids) {
      std::ostringstream line;
      line << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
           << kShardViewPidBase + shard << ",\"tid\":0,\"args\":{\"name\":\"shard " << shard
           << " (executor)\"}}";
      emit(line.str());
    }
    for (const auto& [node, shard] : shard_map) {
      std::ostringstream line;
      line << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << kShardViewPidBase + shard
           << ",\"tid\":" << node << ",\"args\":{\"name\":\"node " << node << "\"}}";
      emit(line.str());
    }
  }
  /// Emit an event line under the node's own process, plus the shard-view
  /// mirror when the node is pinned. `prefix` ends just before "pid":,
  /// `suffix` starts at its trailing comma.
  const auto emit_dual = [&](const std::string& prefix, std::uint32_t node, int tid,
                             const std::string& suffix) {
    emit(prefix + "\"pid\":" + std::to_string(node) + ",\"tid\":" + std::to_string(tid) +
         suffix);
    const auto it = shard_map.find(node);
    if (it != shard_map.end()) {
      emit(prefix + "\"pid\":" + std::to_string(kShardViewPidBase + it->second) +
           ",\"tid\":" + std::to_string(node) + suffix);
    }
  };

  // Pair begin/end per (node, track) with a stack; emission discipline is
  // strictly nested per track, so name mismatches mean ring truncation.
  struct Open {
    TelemetryEvent begin;
  };
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::vector<Open>> stacks;
  const auto emit_span = [&](const TelemetryEvent& b, Time end_t, bool unterminated,
                             std::uint64_t end_arg) {
    std::ostringstream prefix;
    prefix << "{\"ph\":\"X\",\"name\":\"" << json_escape(hub.names().name(b.name))
           << "\",\"cat\":\"" << track_str(b.track) << "\",";
    std::ostringstream suffix;
    suffix << ",\"ts\":" << b.t << ",\"dur\":" << std::max<Time>(end_t - b.t, 0)
           << ",\"args\":{\"epoch\":" << b.epoch << ",\"inc\":" << b.incarnation
           << ",\"arg\":" << b.arg << ",\"end_arg\":" << end_arg;
    if (unterminated) suffix << ",\"unterminated\":true";
    suffix << "}}";
    emit_dual(prefix.str(), b.node, static_cast<int>(b.track), suffix.str());
  };

  for (const MergedEvent& m : events) {
    const TelemetryEvent& e = m.e;
    const auto key = std::make_pair(e.node, static_cast<std::uint8_t>(e.track));
    switch (e.kind) {
      case EventKind::kBegin:
        stacks[key].push_back(Open{e});
        break;
      case EventKind::kEnd: {
        auto& stack = stacks[key];
        if (!stack.empty() && stack.back().begin.name == e.name) {
          emit_span(stack.back().begin, e.t, false, e.arg);
          stack.pop_back();
        } else {
          // Begin lost to ring wraparound (or to a crash that predates the
          // ring): render a zero-length marker so the End stays visible.
          std::ostringstream prefix;
          prefix << "{\"ph\":\"X\",\"name\":\"" << json_escape(hub.names().name(e.name))
                 << "\",\"cat\":\"" << track_str(e.track) << "\",";
          std::ostringstream suffix;
          suffix << ",\"ts\":" << e.t << ",\"dur\":0,\"args\":{\"epoch\":" << e.epoch
                 << ",\"inc\":" << e.incarnation << ",\"arg\":" << e.arg
                 << ",\"orphan\":true}}";
          emit_dual(prefix.str(), e.node, static_cast<int>(e.track), suffix.str());
        }
        break;
      }
      case EventKind::kInstant: {
        std::ostringstream prefix;
        prefix << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\""
               << json_escape(hub.names().name(e.name)) << "\",\"cat\":\""
               << track_str(e.track) << "\",";
        std::ostringstream suffix;
        suffix << ",\"ts\":" << e.t << ",\"args\":{\"epoch\":" << e.epoch
               << ",\"inc\":" << e.incarnation << ",\"arg\":" << e.arg << "}}";
        emit_dual(prefix.str(), e.node, static_cast<int>(e.track), suffix.str());
        break;
      }
    }
  }

  // Spans still open at export time (crash mid-phase, or the run simply
  // stopped): clamp to the horizon and flag.
  for (auto& [key, stack] : stacks) {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      emit_span(it->begin, std::max(horizon, it->begin.t), true, 0);
    }
  }

  os << "\n]}\n";
}

void write_metrics_json(const TelemetryHub& hub, std::ostream& os) {
  os << "{\"global\":";
  write_registry_json(hub.global(), os);
  os << ",\"nodes\":{";
  bool first = true;
  for (const std::uint32_t node : hub.nodes()) {
    const MetricsRegistry* reg = hub.find_node_metrics(node);
    if (reg == nullptr) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << node << "\":";
    write_registry_json(*reg, os);
  }
  os << "},\"aggregate\":";
  const MetricsRegistry total = hub.aggregate_metrics();
  write_registry_json(total, os);
  os << ",\"trace\":{\"events\":" << hub.total_events() << ",\"names\":" << hub.names().size()
     << "}}\n";
}

std::string metrics_summary_line(const TelemetryHub& hub) {
  const MetricsRegistry total = hub.aggregate_metrics();
  std::ostringstream os;
  os << "telemetry:";
  std::size_t shown = 0;
  for (const auto& entry : total.entries()) {
    const auto v = static_cast<std::uint64_t>(total.value_of(entry));
    if (v == 0) continue;
    os << " " << entry.name << "=" << v;
    if (++shown >= 12) {
      os << " ...(" << total.entries().size() << " metrics)";
      break;
    }
  }
  if (shown == 0) os << " (no nonzero metrics)";
  return os.str();
}

void write_flight_record(const TelemetryHub& hub, std::ostream& os, const std::string& reason,
                         std::size_t last_n_per_node) {
  std::uint64_t dropped = 0;
  for (const std::uint32_t node : hub.nodes()) {
    const Tracer* tr = hub.find_tracer(node);
    if (tr != nullptr && tr->ring() != nullptr) dropped += tr->ring()->dropped();
  }
  os << "{\"flight_recorder\":true,\"reason\":\"" << json_escape(reason)
     << "\",\"last_n_per_node\":" << last_n_per_node << ",\"ring_dropped\":" << dropped
     << ",\"summary\":\"" << json_escape(metrics_summary_line(hub)) << "\"}\n";
  write_events_jsonl(hub, os, last_n_per_node);
}

}  // namespace msw
