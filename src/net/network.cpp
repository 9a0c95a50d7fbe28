#include "net/network.hpp"

#include <algorithm>
#include <cassert>

namespace msw {
namespace {

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from.v) << 32) | to.v;
}

// splitmix64 finalizer: spreads the structured link key over the seed space
// so adjacent links get unrelated streams.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A TransportTimer is the scheduler's EventId packed as slot | gen << 32.
// Generations start at 1, so a live token is never 0.
std::uint64_t pack(EventId ev) {
  return std::uint64_t{ev.slot} | (std::uint64_t{ev.gen} << 32);
}
EventId unpack(std::uint64_t v) {
  return EventId{static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(v >> 32)};
}

}  // namespace

Network::Network(Scheduler& sched, Rng rng, NetConfig cfg)
    : sched_(sched), rng_(rng), link_seed_base_(rng_.next()), cfg_(cfg) {}

Rng& Network::link_rng(NodeId from, NodeId to) {
  const std::uint64_t key = link_key(from, to);
  auto it = link_rngs_.find(key);
  if (it == link_rngs_.end()) {
    it = link_rngs_.emplace(key, Rng(link_seed_base_ ^ mix64(key))).first;
  }
  return it->second;
}

NodeId Network::add_node(std::size_t /*shard_hint*/) {
  nodes_.push_back(Node{});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void Network::set_handler(NodeId node, PacketHandler handler) {
  assert(node.v < nodes_.size());
  nodes_[node.v].handler = std::move(handler);
}

void Network::set_run_handler(NodeId node, PacketRunHandler handler) {
  assert(node.v < nodes_.size());
  nodes_[node.v].run_handler = std::move(handler);
}

Duration Network::serialization_delay(std::size_t bytes) const {
  if (cfg_.bandwidth_bps <= 0) return 0;
  const auto bits = static_cast<std::int64_t>((bytes + cfg_.wire_overhead_bytes) * 8);
  return bits * kSecond / cfg_.bandwidth_bps;
}

Duration Network::propagation(NodeId from, NodeId to) {
  if (from == to) return cfg_.loopback_latency;
  Duration d = cfg_.base_latency;
  if (cfg_.jitter > 0) {
    d += static_cast<Duration>(
        link_rng(from, to).below(static_cast<std::uint64_t>(cfg_.jitter) + 1));
  }
  return d;
}

Time Network::transmit_time(NodeId from, std::size_t bytes) {
  Node& n = nodes_[from.v];
  // The sender's CPU is a serial resource: back-to-back sends queue.
  const Time cpu_start = std::max(sched_.now(), n.cpu_free_at);
  const Time cpu_done = cpu_start + cfg_.cpu_send;
  n.cpu_free_at = cpu_done;
  // The shared medium is likewise serial (CSMA/CD-style, without modelling
  // collisions): the packet occupies the wire after the CPU releases it.
  const Time wire_start = std::max(cpu_done, wire_free_at_);
  const Time wire_done = wire_start + serialization_delay(bytes);
  wire_free_at_ = wire_done;
  stats_.bytes_on_wire += bytes + cfg_.wire_overhead_bytes;
  return wire_done;
}

void Network::finish_copy(NodeId dest, Packet packet, Time sent_at) {
  Node& n = nodes_[dest.v];
  if (!n.up) {
    ++stats_.copies_dropped_node;
    return;
  }
  // Receive-side CPU cost; the node works packets off serially. A crash
  // between arrival and the end of processing loses the queued packet:
  // the incarnation recorded here no longer matches.
  const Time start = std::max(sched_.now(), n.cpu_free_at);
  const Time done = start + cfg_.cpu_recv;
  n.cpu_free_at = done;
  const std::uint64_t inc = n.incarnation;
  sched_.at(done, [this, dest, inc, sent_at, p = std::move(packet)]() mutable {
    Node& node = nodes_[dest.v];
    if (!node.up || node.incarnation != inc || !node.handler) {
      ++stats_.copies_dropped_node;
      return;
    }
    ++stats_.copies_delivered;
    if (cfg_.sample_delivery_latency) {
      stats_.delivery_latency_ms.add(
          static_cast<double>(sched_.now() - sent_at) / kMillisecond);
    }
    node.handler(std::move(p));
  });
}

void Network::deliver_copy(NodeId dest, Packet packet, Time arrive) {
  const Time sent_at = sched_.now();
  sched_.at(arrive, [this, dest, sent_at, p = std::move(packet)]() mutable {
    finish_copy(dest, std::move(p), sent_at);
  });
}

void Network::deliver_run(NodeId dest, NodeId from,
                          std::shared_ptr<const std::vector<Payload>> run, Time arrive) {
  const Time sent_at = sched_.now();
  sched_.at(arrive, [this, dest, from, sent_at, run = std::move(run)]() mutable {
    Node& n = nodes_[dest.v];
    if (!n.up) {
      stats_.copies_dropped_node += run->size();
      return;
    }
    if (cfg_.cpu_recv > 0) {
      // Serial receive CPU: every copy clears processing at its own
      // instant, so handler events stay per-copy — only the arrival event
      // was shared. finish_copy performs exactly the unbatched per-copy
      // bookkeeping, in run order.
      for (const Payload& p : *run) finish_copy(dest, Packet{from, p}, sent_at);
      return;
    }
    // Free receive CPU: the whole run clears processing at one instant, so
    // one handler event delivers it all.
    const Time done = std::max(sched_.now(), n.cpu_free_at);
    n.cpu_free_at = done;
    const std::uint64_t inc = n.incarnation;
    sched_.at(done, [this, dest, from, inc, sent_at, run = std::move(run)]() {
      Node& node = nodes_[dest.v];
      if (!node.up || node.incarnation != inc || (!node.handler && !node.run_handler)) {
        stats_.copies_dropped_node += run->size();
        return;
      }
      stats_.copies_delivered += run->size();
      if (cfg_.sample_delivery_latency) {
        const double ms = static_cast<double>(sched_.now() - sent_at) / kMillisecond;
        for (std::size_t i = 0; i < run->size(); ++i) stats_.delivery_latency_ms.add(ms);
      }
      if (node.run_handler) {
        node.run_handler(from, std::span<const Payload>(run->data(), run->size()));
      } else {
        for (const Payload& p : *run) node.handler(Packet{from, p});
      }
    });
  });
}

bool Network::route_copy(NodeId from, NodeId dest, const Payload& data, Time on_wire) {
  if (!link_up(from, dest)) {
    ++stats_.copies_dropped_link;
    return false;
  }
  const bool loopback = from == dest;
  if (!loopback && cfg_.loss > 0 && link_rng(from, dest).chance(cfg_.loss)) {
    ++stats_.copies_dropped_loss;
    return false;
  }
  FaultInjector::CopyPlan plan;
  if (injector_ && !loopback) plan = injector_->on_copy(from, dest, sched_.now());
  if (plan.drop) {
    ++stats_.copies_dropped_fault;
    return false;
  }
  const Time arrive = on_wire + propagation(from, dest) + plan.extra_delay;
  deliver_copy(dest, Packet{from, data}, arrive);
  if (plan.duplicate) {
    ++stats_.copies_duplicated;
    // The duplicate occupies the wire like any other copy; count its bytes
    // so bytes_on_wire reflects actual wire load under fault injection.
    stats_.bytes_on_wire += data.size() + cfg_.wire_overhead_bytes;
    deliver_copy(dest, Packet{from, data}, arrive + plan.duplicate_delay);
  }
  return true;
}

void Network::send(NodeId from, NodeId to, Payload data) {
  assert(from.v < nodes_.size() && to.v < nodes_.size());
  if (!nodes_[from.v].up) {
    ++stats_.copies_dropped_node;
    return;
  }
  ++stats_.unicasts_sent;
  const Time on_wire = transmit_time(from, data.size());
  route_copy(from, to, data, on_wire);
}

void Network::multicast(NodeId from, const std::vector<NodeId>& to, Payload data) {
  assert(from.v < nodes_.size());
  if (!nodes_[from.v].up) {
    ++stats_.copies_dropped_node;
    return;
  }
  ++stats_.multicasts_sent;
  // One serialization regardless of fan-out: hardware multicast. Every
  // delivered copy aliases `data`'s shared buffer; the fan-out loop only
  // bumps a refcount per destination.
  const Time on_wire = transmit_time(from, data.size());
  for (NodeId dest : to) {
    assert(dest.v < nodes_.size());
    route_copy(from, dest, data, on_wire);
  }
}

void Network::multicast_run(NodeId from, const std::vector<NodeId>& to,
                            std::span<const Payload> msgs) {
  assert(from.v < nodes_.size());
  const std::size_t k_count = msgs.size();
  if (k_count == 0) return;
  if (k_count == 1) {
    multicast(from, to, msgs[0]);
    return;
  }
  if (!nodes_[from.v].up) {
    stats_.copies_dropped_node += k_count;
    return;
  }
  stats_.multicasts_sent += k_count;

  TickArena& arena = sched_.tick_arena();
  // Each packet serializes in order — identical sender-CPU and wire
  // reservations to k_count back-to-back multicast() calls.
  Time* on_wire = arena.alloc_array<Time>(k_count);
  for (std::size_t k = 0; k < k_count; ++k) on_wire[k] = transmit_time(from, msgs[k].size());

  struct CopyRec {
    Time arrive;
    std::uint32_t pkt;
  };
  const std::size_t n_dest = to.size();
  const std::size_t cap = 2 * k_count;  // primary + possible injected duplicate
  CopyRec** recs = arena.alloc_array<CopyRec*>(n_dest);
  std::uint32_t* counts = arena.alloc_array<std::uint32_t>(n_dest);
  bool* clean = arena.alloc_array<bool>(n_dest);  // no drop or duplicate seen
  for (std::size_t d = 0; d < n_dest; ++d) {
    recs[d] = arena.alloc_array<CopyRec>(cap);
    counts[d] = 0;
    clean[d] = true;
  }

  // Packet-major routing, exactly the order k_count separate multicasts
  // would use: per-link RNG draws (loss, jitter) and fault-injector
  // callbacks happen in the same sequence, so every drop, delay and
  // duplicate decision is bit-identical to the unbatched run.
  for (std::size_t k = 0; k < k_count; ++k) {
    const auto pkt = static_cast<std::uint32_t>(k);
    for (std::size_t d = 0; d < n_dest; ++d) {
      const NodeId dest = to[d];
      assert(dest.v < nodes_.size());
      if (!link_up(from, dest)) {
        ++stats_.copies_dropped_link;
        clean[d] = false;
        continue;
      }
      const bool loopback = from == dest;
      if (!loopback && cfg_.loss > 0 && link_rng(from, dest).chance(cfg_.loss)) {
        ++stats_.copies_dropped_loss;
        clean[d] = false;
        continue;
      }
      FaultInjector::CopyPlan plan;
      if (injector_ && !loopback) plan = injector_->on_copy(from, dest, sched_.now());
      if (plan.drop) {
        ++stats_.copies_dropped_fault;
        clean[d] = false;
        continue;
      }
      const Time arrive = on_wire[k] + propagation(from, dest) + plan.extra_delay;
      recs[d][counts[d]++] = CopyRec{arrive, pkt};
      if (plan.duplicate) {
        ++stats_.copies_duplicated;
        stats_.bytes_on_wire += msgs[k].size() + cfg_.wire_overhead_bytes;
        recs[d][counts[d]++] = CopyRec{arrive + plan.duplicate_delay, pkt};
        clean[d] = false;
      }
    }
  }

  // One scatter per destination per distinct arrival instant: coalesce
  // maximal runs of consecutive same-arrival copies. Per-destination
  // records are already in the order the unbatched world would have
  // scheduled them, and equal-time events execute in insertion order, so
  // each destination observes the exact unbatched packet sequence.
  std::shared_ptr<const std::vector<Payload>> full;  // shared full-run storage, built lazily
  for (std::size_t d = 0; d < n_dest; ++d) {
    const NodeId dest = to[d];
    const CopyRec* r = recs[d];
    const std::uint32_t cnt = counts[d];
    std::uint32_t i = 0;
    while (i < cnt) {
      std::uint32_t j = i + 1;
      while (j < cnt && r[j].arrive == r[i].arrive) ++j;
      const std::uint32_t len = j - i;
      if (len == 1) {
        deliver_copy(dest, Packet{from, msgs[r[i].pkt]}, r[i].arrive);
      } else if (len == k_count && clean[d]) {
        // The destination receives the entire run unperturbed — the common
        // case on a healthy network. All such destinations alias one
        // immutable payload vector: O(1) refcounts per destination.
        if (!full) {
          full = std::make_shared<const std::vector<Payload>>(msgs.begin(), msgs.end());
        }
        deliver_run(dest, from, full, r[i].arrive);
      } else {
        auto owned = std::make_shared<std::vector<Payload>>();
        owned->reserve(len);
        for (std::uint32_t x = i; x < j; ++x) owned->push_back(msgs[r[x].pkt]);
        deliver_run(dest, from, std::move(owned), r[i].arrive);
      }
      i = j;
    }
  }
}

void Network::set_link_up(NodeId from, NodeId to, bool up) {
  const auto key = link_key(from, to);
  auto it = std::find(down_links_.begin(), down_links_.end(), key);
  if (up) {
    if (it != down_links_.end()) down_links_.erase(it);
  } else {
    if (it == down_links_.end()) down_links_.push_back(key);
  }
}

bool Network::link_up(NodeId from, NodeId to) const {
  if (from == to) return true;
  return std::find(down_links_.begin(), down_links_.end(), link_key(from, to)) ==
         down_links_.end();
}

void Network::set_node_up(NodeId node, bool up) {
  assert(node.v < nodes_.size());
  nodes_[node.v].up = up;
}

bool Network::node_up(NodeId node) const {
  assert(node.v < nodes_.size());
  return nodes_[node.v].up;
}

void Network::crash_node(NodeId node) {
  assert(node.v < nodes_.size());
  Node& n = nodes_[node.v];
  n.up = false;
  ++n.incarnation;  // invalidates every packet queued behind cpu_recv
  n.cpu_free_at = 0;
}

void Network::restart_node(NodeId node) {
  assert(node.v < nodes_.size());
  nodes_[node.v].up = true;
}

TransportTimer Network::set_timer(NodeId /*node*/, Duration delay, UniqueFunction<void()> fn) {
  return TransportTimer{pack(sched_.after(delay, std::move(fn)))};
}

void Network::cancel_timer(NodeId /*node*/, TransportTimer timer) {
  sched_.cancel(unpack(timer.v));
}

void Network::post(NodeId /*node*/, std::function<void()> fn) {
  sched_.after(0, std::move(fn));
}

void Network::consume_cpu(NodeId node, Duration d) {
  assert(node.v < nodes_.size());
  if (d <= 0) return;
  Node& n = nodes_[node.v];
  n.cpu_free_at = std::max(sched_.now(), n.cpu_free_at) + d;
}

}  // namespace msw
