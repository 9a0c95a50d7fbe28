// Shared fixtures for protocol tests: standard network configurations and
// a bundled simulation+network+group harness.
#pragma once

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "trace/properties.hpp"

namespace msw::testing {

/// Idealized LAN: fixed 1 ms hops, no jitter/CPU/serialization costs.
/// Protocol logic tests use this so arrival times are exact.
inline NetConfig ideal_net() {
  NetConfig cfg;
  cfg.base_latency = 1 * kMillisecond;
  cfg.jitter = 0;
  cfg.loopback_latency = 20;
  cfg.cpu_send = 0;
  cfg.cpu_recv = 0;
  cfg.bandwidth_bps = 0;
  cfg.wire_overhead_bytes = 0;
  cfg.loss = 0.0;
  return cfg;
}

/// Same topology with independent per-copy loss.
inline NetConfig lossy_net(double loss) {
  NetConfig cfg = ideal_net();
  cfg.loss = loss;
  return cfg;
}

/// 1990s-era LAN matching the paper's testbed scale (see EXPERIMENTS.md).
inline NetConfig era_net() {
  NetConfig cfg;
  cfg.base_latency = 1 * kMillisecond;
  cfg.jitter = 100;
  cfg.loopback_latency = 20;
  cfg.cpu_send = 300;
  cfg.cpu_recv = 300;
  cfg.bandwidth_bps = 10'000'000;
  cfg.wire_overhead_bytes = 64;
  return cfg;
}

struct GroupHarness {
  GroupHarness(std::size_t n, const LayerFactory& factory, NetConfig cfg = ideal_net(),
               std::uint64_t seed = 1)
      : sim(seed), net(sim.scheduler(), sim.fork_rng(), cfg), group(sim, net, n, factory) {
    group.start();
  }

  /// Send from member i and run the simulation for `settle` afterwards.
  void send_and_settle(std::size_t i, Bytes body, Duration settle = 100 * kMillisecond) {
    group.send(i, std::move(body));
    sim.run_for(settle);
  }

  /// Deliveries of data (non-view) messages at member i, in order.
  std::vector<MsgId> delivered_data(std::size_t i) const {
    std::vector<MsgId> out;
    for (const auto& e : group.trace()) {
      if (e.is_deliver() && e.process == group.node(i).v && !e.is_view_marker()) {
        out.push_back(e.msg);
      }
    }
    return out;
  }

  Simulation sim;
  Network net;
  Group group;
};

/// Multicast from member i, posted to the group's context: on threads,
/// the only way a caller off the group's shard may send.
inline void post_send(Group& g, std::size_t i, Bytes body) {
  g.post([&g, i, body = std::move(body)]() mutable { g.send(i, std::move(body)); });
}

/// Sends member `to` what a hostile peer could: a frame whose top layer
/// header is the single byte `type`, over a well-formed application header
/// (sender 2, seq 77) and the body "forged".
inline void send_forged_frame(GroupHarness& h, std::size_t to, std::uint8_t type) {
  Message forged = Message::group(to_bytes("forged"));
  AppHeader::push(forged, AppHeader{AppHeader::Kind::kData, 2, 77});
  forged.push_header([type](Writer& w) { w.u8(type); });
  h.net.send(h.group.node(0), h.group.node(to), std::move(forged.data));
}

/// Asserts that all members delivered exactly the same data messages in
/// exactly the same order (total order + agreement).
inline void expect_identical_delivery(GroupHarness& h) {
  const auto reference = h.delivered_data(0);
  for (std::size_t i = 1; i < h.group.size(); ++i) {
    EXPECT_EQ(h.delivered_data(i), reference) << "member " << i << " diverged";
  }
}

}  // namespace msw::testing
