// Simulated LAN.
//
// Models the paper's testbed (SparcStation-20s on a 10 Mbit Ethernet):
//   - per-hop propagation latency with uniform jitter,
//   - a shared-medium serialization delay proportional to packet size,
//   - hardware multicast: one transmission reaches every destination,
//   - per-node CPU cost for sending and receiving; the CPU is a serial
//     resource, so a busy node (e.g. the sequencer under load) queues work
//     and exhibits the queueing delay that drives Figure 2,
//   - independent per-destination packet loss,
//   - link up/down control for partition experiments.
//
// All delays are deterministic functions of the seeded Rng.
//
// The Network is the simulator's implementation of Transport, so a stack
// runs over it exactly as it runs over threads or sockets. Timers are plain
// scheduler events: a TransportTimer is the packed EventId, and a stale
// token cancels nothing because the scheduler checks the generation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/node_id.hpp"
#include "net/stats.hpp"
#include "net/transport.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/function_ref.hpp"
#include "util/payload.hpp"
#include "util/rng.hpp"

namespace msw {

struct NetConfig {
  /// One-way propagation latency between distinct nodes.
  Duration base_latency = 1 * kMillisecond;
  /// Additional uniform jitter in [0, jitter] per destination.
  Duration jitter = 100 * kMicrosecond;
  /// Latency for a node's own copy of its multicast (kernel loopback).
  Duration loopback_latency = 20 * kMicrosecond;
  /// Shared-medium bandwidth; serialization delay = bits / bandwidth.
  std::int64_t bandwidth_bps = 10'000'000;
  /// Fixed per-packet wire overhead (headers, framing) added to size.
  std::size_t wire_overhead_bytes = 64;
  /// CPU cost to hand one packet to the network (per send/multicast call).
  Duration cpu_send = 300 * kMicrosecond;
  /// CPU cost to process one received packet before the stack sees it.
  Duration cpu_recv = 300 * kMicrosecond;
  /// Independent per-destination drop probability (loopback never drops).
  double loss = 0.0;
  /// Record per-copy send-to-handler latency into
  /// NetStats::delivery_latency_ms. Off by default: sampling appends to a
  /// vector per delivered copy, which the multicast hot path must not pay.
  bool sample_delivery_latency = false;
};

/// Per-copy perturbation hook consulted for every unicast/multicast copy
/// that survived the link and loss checks (loopback copies are exempt).
/// The fault plane (net/fault.hpp) implements this; the Network stays free
/// of fault policy and only applies the returned plan.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  struct CopyPlan {
    /// Drop the copy outright (burst loss beyond the base `loss` rate).
    bool drop = false;
    /// Duplicate the copy: a second identical Packet is delivered.
    bool duplicate = false;
    /// Added to the copy's arrival time (bounded reordering, jitter burst).
    Duration extra_delay = 0;
    /// Added on top of `extra_delay` for the duplicate's arrival.
    Duration duplicate_delay = 0;
  };

  virtual CopyPlan on_copy(NodeId from, NodeId to, Time now) = 0;
};

class Network final : public Transport {
 public:
  Network(Scheduler& sched, Rng rng, NetConfig cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a new node; ids are dense and creation-ordered. The shard hint
  /// is meaningless on the single-threaded simulator and ignored.
  NodeId add_node(std::size_t shard_hint = 0) override;

  std::size_t node_count() const { return nodes_.size(); }

  /// Install the receive callback for a node (required before traffic).
  void set_handler(NodeId node, PacketHandler handler) override;

  /// Install the run receive callback for a node (optional; see
  /// PacketRunHandler). Only coalesced runs from multicast_run use it.
  void set_run_handler(NodeId node, PacketRunHandler handler) override;

  /// Point-to-point datagram. Sending to self uses the loopback path.
  void send(NodeId from, NodeId to, Payload data) override;

  /// Hardware multicast: one serialization on the wire, every destination
  /// (including `from` itself, if listed) receives a copy. The copies all
  /// share `data`'s buffer — fan-out is O(1) per destination, not O(bytes).
  void multicast(NodeId from, const std::vector<NodeId>& to, Payload data) override;

  /// Multicast a run: behaves exactly like calling multicast() once per
  /// element of `msgs`, in order — same per-link RNG draws, same fault
  /// decisions, same stats, same per-destination delivery order — but
  /// copies to one destination whose arrivals coincide are coalesced into
  /// one scheduler scatter event (and, when cpu_recv is zero, one handler
  /// event). With an ideal network config the whole fan-out costs one
  /// event per destination per tick instead of one per copy. Grouping
  /// tables live in the scheduler's tick arena; nothing per-message is
  /// allocated for the common all-arrivals-equal case beyond one shared
  /// payload vector.
  void multicast_run(NodeId from, const std::vector<NodeId>& to,
                     std::span<const Payload> msgs) override;

  /// One-shot timer: a scheduler event `delay` from now. Any node's timers
  /// share the one scheduler, so `node` is not consulted.
  TransportTimer set_timer(NodeId node, Duration delay, UniqueFunction<void()> fn) override;
  void cancel_timer(NodeId node, TransportTimer timer) override;

  /// Simulated time.
  Time now() const override { return sched_.now(); }

  /// Partition control. Both directions are affected independently.
  void set_link_up(NodeId from, NodeId to, bool up);
  bool link_up(NodeId from, NodeId to) const;

  /// Pause/resume a node: while down it stops receiving and its sends are
  /// discarded; packets already queued behind its CPU survive a resume.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const;

  /// Crash a node: down as with set_node_up(false), plus its receive queue
  /// is lost — packets that had arrived but not yet cleared cpu_recv are
  /// discarded even if they would finish processing after a restart.
  void crash_node(NodeId node);
  /// Bring a crashed (or paused) node back. Protocol state above the
  /// network survives; only in-flight receive work was lost.
  void restart_node(NodeId node);

  /// Install (or clear, with nullptr) the per-copy fault hook. Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Crash count of a node — stamps telemetry events so a trace shows
  /// which incarnation of the node emitted them.
  std::uint64_t incarnation(NodeId node) const { return nodes_[node.v].incarnation; }

  /// Attach every NetStats counter to `reg` (prefix "net.") — the telemetry
  /// plane's single sink for network counters. The hot path keeps writing
  /// the plain NetStats fields; the registry holds views, so binding costs
  /// the send/multicast path nothing.
  void bind_metrics(MetricsRegistry& reg) const { stats_.bind_metrics(reg); }

  /// Occupy the node's CPU for `d` starting now (protocol processing such
  /// as the sequencer's ordering work). Subsequent sends and receive
  /// processing at this node queue behind it.
  void consume_cpu(NodeId node, Duration d) override;

  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }

  const NetConfig& config() const { return cfg_; }
  Scheduler& scheduler() { return sched_; }

 private:
  struct Node {
    PacketHandler handler;
    PacketRunHandler run_handler;
    Time cpu_free_at = 0;
    bool up = true;
    /// Bumped by crash_node; receive work scheduled under an older
    /// incarnation is dropped when it comes due.
    std::uint64_t incarnation = 0;
  };

  /// Reserve the sender's CPU + the shared wire; returns the time the
  /// packet is on the wire.
  Time transmit_time(NodeId from, std::size_t bytes);

  /// Schedule delivery of a copy at `dest` arriving at `arrive`.
  void deliver_copy(NodeId dest, Packet packet, Time arrive);

  /// Arrival-time body of deliver_copy: receive-CPU bookkeeping plus the
  /// handler event. Shared with deliver_run's serial-CPU path.
  void finish_copy(NodeId dest, Packet packet, Time sent_at);

  /// Schedule delivery of a coalesced run (>= 2 copies, one sender, equal
  /// arrival) at `dest`: one arrival event; one handler event too when
  /// cpu_recv is zero, per-copy handler events otherwise (the serial CPU
  /// gives each copy its own completion instant).
  void deliver_run(NodeId dest, NodeId from, std::shared_ptr<const std::vector<Payload>> run,
                   Time arrive);

  /// Per-copy checks + fault plan for one destination; returns false when
  /// the copy dies (link down, loss, injected drop). On success schedules
  /// the copy (and a possible injected duplicate).
  bool route_copy(NodeId from, NodeId dest, const Payload& data, Time on_wire);

  Duration serialization_delay(std::size_t bytes) const;
  Duration propagation(NodeId from, NodeId to);

  /// Independent random stream for the (from, to) link. Derived from a
  /// per-network base seed and the link key only, so draws on one link
  /// (loss, jitter) never perturb another's sequence no matter in which
  /// order nodes or traffic appear.
  Rng& link_rng(NodeId from, NodeId to);

  Scheduler& sched_;
  Rng rng_;
  std::uint64_t link_seed_base_;
  NetConfig cfg_;
  std::vector<Node> nodes_;
  Time wire_free_at_ = 0;
  NetStats stats_;
  FaultInjector* injector_ = nullptr;
  // Sparse set of down links, keyed (from << 32 | to).
  std::vector<std::uint64_t> down_links_;
  std::unordered_map<std::uint64_t, Rng> link_rngs_;
};

}  // namespace msw
