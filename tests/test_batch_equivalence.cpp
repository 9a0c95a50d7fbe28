// Run-vs-single-send equivalence: Stack::send_batch, whose group
// multicasts leave as one Transport::multicast_run (one scatter at the
// sender, coalesced delivery at each member), must be an *optimization*,
// not a semantics change. For the same seed, submitting the same bodies
// through send_batch and through one send() each must produce, at every
// process, the identical sequence of trace events — bodies, ids, order,
// and simulated timestamps — plus identical network statistics (bytes on
// wire, copies delivered) and identical protocol-layer counters.
//
// Comparison is per-process projection, not the global trace: coalescing
// legitimately merges same-instant events into fewer scheduler slots, so
// the interleaving *across* processes at one instant may differ while
// every per-process history (the paper's system model: a trace is what a
// process observes) is unchanged. See DESIGN.md section 11.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/causal_layer.hpp"
#include "proto/fifo_layer.hpp"
#include "proto/link_layers.hpp"
#include "proto/reliable_layer.hpp"
#include "switch/hybrid.hpp"
#include "trace/trace.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

// ---------------------------------------------------------------------------
// Equivalence harness
// ---------------------------------------------------------------------------

struct RunResult {
  Trace trace;
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t> net;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t scheduler_events = 0;
  // Summed protocol counters where the scenario's stack has a ReliableLayer.
  std::uint64_t rel_nacks = 0, rel_retx = 0, rel_dups = 0;
};

/// Submit `bodies` from member `sender`: as one send_batch run, or (the
/// control arm) one send() per body.
void submit(Group& group, std::size_t sender, std::vector<Bytes> bodies, bool as_run) {
  if (as_run) {
    group.send_batch(sender, std::move(bodies));
  } else {
    for (Bytes& body : bodies) group.send(sender, std::move(body));
  }
}

/// One scenario run: `n` members on `cfg`, a fixed submission schedule
/// (each entry = (time ms, sender, batch size)), everything seeded
/// identically; only `as_run` differs between the two arms.
RunResult run_scenario(const LayerFactory& factory, NetConfig cfg, bool as_run, std::size_t n,
                       std::uint64_t seed, int reliable_at = -1) {
  GroupHarness h(n, factory, cfg, seed);
  int k = 0;
  for (int tick = 0; tick < 12; ++tick) {
    const std::size_t sender = static_cast<std::size_t>(tick) % n;
    const Time when = (10 + tick * 37) * kMillisecond;
    const std::size_t batch = 1 + static_cast<std::size_t>(tick) % 5;
    std::vector<Bytes> bodies;
    for (std::size_t j = 0; j < batch; ++j) bodies.push_back(to_bytes("b" + std::to_string(k++)));
    h.sim.scheduler().at(when, [&h, sender, as_run, bodies = std::move(bodies)]() mutable {
      submit(h.group, sender, std::move(bodies), as_run);
    });
  }
  h.sim.run_for(20 * kSecond);

  RunResult r;
  r.trace = h.group.trace();
  const auto& s = h.net.stats();
  r.net = {s.unicasts_sent, s.multicasts_sent, s.copies_delivered, s.copies_dropped_loss,
           s.bytes_on_wire};
  r.sent = h.group.total_sent();
  r.delivered = h.group.total_delivered();
  r.scheduler_events = h.sim.scheduler().executed();
  if (reliable_at >= 0) {
    for (std::size_t i = 0; i < n; ++i) {
      auto& rel = static_cast<ReliableLayer&>(
          h.group.stack(i).chain().layer(static_cast<std::size_t>(reliable_at)));
      r.rel_nacks += rel.stats().nacks_sent;
      r.rel_retx += rel.stats().retransmissions;
      r.rel_dups += rel.stats().duplicates_dropped;
    }
  }
  return r;
}

std::vector<TraceEvent> project(const Trace& t, std::uint32_t process) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : t) {
    if (e.process == process) out.push_back(e);
  }
  return out;
}

void expect_projections_identical(const Trace& runs, const Trace& singles) {
  ASSERT_EQ(processes_of(runs), processes_of(singles));
  for (std::uint32_t p : processes_of(singles)) {
    const auto a = project(runs, p);
    const auto b = project(singles, p);
    ASSERT_EQ(a.size(), b.size()) << "process " << p << " event count diverged";
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "process " << p << " event " << i << " diverged";
      EXPECT_EQ(a[i].time, b[i].time)
          << "process " << p << " event " << i << " shifted in simulated time";
    }
  }
}

void expect_equivalent(const RunResult& runs, const RunResult& singles) {
  EXPECT_GT(singles.delivered, 0u) << "scenario delivered nothing; vacuous";
  EXPECT_EQ(runs.sent, singles.sent);
  EXPECT_EQ(runs.delivered, singles.delivered);
  EXPECT_EQ(runs.net, singles.net)
      << "wire statistics diverged (bytes/copies/multicasts must be identical)";
  EXPECT_EQ(runs.rel_nacks, singles.rel_nacks);
  EXPECT_EQ(runs.rel_retx, singles.rel_retx);
  EXPECT_EQ(runs.rel_dups, singles.rel_dups);
  expect_projections_identical(runs.trace, singles.trace);
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

TEST(BatchEquivalence, ReliableFifoUnderRealisticLossyNet) {
  // The full-cost model: CPU charges, bandwidth serialization, jitter and
  // loss draws. Equivalence here proves the run's scatter consumes the
  // per-link RNG streams and transmit-time reservations in exactly the
  // per-message order.
  NetConfig cfg = testing::era_net();
  cfg.loss = 0.05;
  const auto runs = run_scenario(make_reliable_fifo_factory(), cfg, true, 5, 42, 1);
  const auto singles = run_scenario(make_reliable_fifo_factory(), cfg, false, 5, 42, 1);
  expect_equivalent(runs, singles);
}

TEST(BatchEquivalence, SequencerUnderLoss) {
  // Sequencer path: order requests, history retransmissions and gap NACKs
  // interleave with the sequencer's runs of sequenced multicasts.
  const auto runs = run_scenario(make_sequencer_factory(), testing::lossy_net(0.1), true, 4, 7);
  const auto singles = run_scenario(make_sequencer_factory(), testing::lossy_net(0.1), false, 4, 7);
  expect_equivalent(runs, singles);
}

TEST(BatchEquivalence, CausalOverReliable) {
  const LayerFactory factory = [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<CausalLayer>());
    layers.push_back(std::make_unique<ReliableLayer>());
    return layers;
  };
  NetConfig cfg = testing::era_net();
  cfg.loss = 0.03;
  const auto runs = run_scenario(factory, cfg, true, 4, 11, 1);
  const auto singles = run_scenario(factory, cfg, false, 4, 11, 1);
  expect_equivalent(runs, singles);
}

TEST(BatchEquivalence, HybridTotalOrderAcrossASwitch) {
  // The switching protocol mid-flight: runs straddle PREPARE/SWITCH token
  // rotations, and coalesced deliveries mix data and SP control frames.
  const auto run = [](bool as_run) {
    GroupHarness h(4, make_hybrid_total_order_factory(), testing::lossy_net(0.05), 99);
    int k = 0;
    for (int tick = 0; tick < 14; ++tick) {
      const std::size_t sender = static_cast<std::size_t>(tick) % 4;
      std::vector<Bytes> bodies;
      for (std::size_t j = 0; j < 3; ++j) bodies.push_back(to_bytes("s" + std::to_string(k++)));
      h.sim.scheduler().at((15 + tick * 29) * kMillisecond,
                           [&h, sender, as_run, bodies = std::move(bodies)]() mutable {
                             submit(h.group, sender, std::move(bodies), as_run);
                           });
    }
    h.sim.scheduler().at(150 * kMillisecond,
                         [&h] { switch_layer_of(h.group.stack(1)).request_switch(); });
    h.sim.run_for(20 * kSecond);
    return h.group.trace();
  };
  const Trace runs = run(true);
  const Trace singles = run(false);
  EXPECT_FALSE(singles.empty());
  expect_projections_identical(runs, singles);
}

TEST(BatchEquivalence, StopAndWaitPointToPoint) {
  // The ARQ specialization, slowest arm: one frame in flight means a
  // submitted run drains through the queue one RTT at a time, and every
  // frame is point-to-point, so nothing is coalesced — the wire behaviour
  // (and every retransmission under loss) must be identical.
  const LayerFactory factory = [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<StopAndWaitLayer>());
    return layers;
  };
  NetConfig cfg = testing::era_net();
  cfg.loss = 0.05;
  const auto runs = run_scenario(factory, cfg, true, 2, 17);
  const auto singles = run_scenario(factory, cfg, false, 2, 17);
  expect_equivalent(runs, singles);
}

TEST(BatchEquivalence, GoBackNPointToPoint) {
  // Go-back-N: a submitted run can fill the whole window at once, so it
  // interleaves window pumps, cumulative acks, and full-window
  // retransmissions — all of which must match single sends frame for
  // frame.
  const LayerFactory factory = [](NodeId, const std::vector<NodeId>&) {
    LinkConfig cfg;
    cfg.window = 4;  // smaller than the biggest submitted batch: backlog spills
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<GoBackNLayer>(cfg));
    return layers;
  };
  NetConfig net = testing::era_net();
  net.loss = 0.05;
  const auto runs = run_scenario(factory, net, true, 2, 23);
  const auto singles = run_scenario(factory, net, false, 2, 23);
  expect_equivalent(runs, singles);
}

TEST(BatchEquivalence, CoalescingReducesSchedulerEvents) {
  // Under the ideal cost model (no per-copy CPU, no serialization) a run's
  // arrivals at one destination coalesce into a single scheduler event —
  // same deliveries, far fewer events.
  const auto runs =
      run_scenario(make_reliable_fifo_factory(), testing::ideal_net(), true, 6, 3, 1);
  const auto singles =
      run_scenario(make_reliable_fifo_factory(), testing::ideal_net(), false, 6, 3, 1);
  expect_equivalent(runs, singles);
  EXPECT_LT(runs.scheduler_events, singles.scheduler_events)
      << "runs under the ideal cost model must execute fewer scheduler events";
}

TEST(BatchEquivalence, MalformedFrameInRunIsDroppedAlone) {
  // A run whose middle frame fails to decode, on the cost-free net, so each
  // member receives the three copies as one coalesced run: the bad frame
  // is dropped on its own, and its runmates are delivered, in order.
  const LayerFactory factory = [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<FifoLayer>());
    return layers;
  };
  constexpr std::size_t kN = 4;
  GroupHarness h(kN, factory);
  const auto frame = [&h](std::uint64_t seq, const std::string& body) {
    // Stack::send's app header, then FifoLayer's data header.
    const std::uint32_t origin = h.group.node(0).v;
    Message m = Message::group(to_bytes(body));
    AppHeader::push(m, AppHeader{AppHeader::Kind::kData, origin, seq});
    m.push_header([&](Writer& w) {
      w.u8(0);
      w.u32(origin);
      w.u64(seq);
    });
    return m.data;
  };
  const std::vector<Payload> run = {frame(0, "first"), Payload(Bytes{Byte{1}, Byte{2}}),
                                    frame(1, "last")};
  const std::uint64_t events_before = h.sim.scheduler().executed();
  h.net.multicast_run(h.group.node(0), h.group.members(), run);
  h.sim.run_for(100 * kMillisecond);
  EXPECT_LT(h.sim.scheduler().executed() - events_before, 3 * kN)
      << "each member must receive the three copies as one run, not one event per copy";
  for (std::size_t p = 0; p < kN; ++p) {
    const auto got = h.delivered_data(p);
    ASSERT_EQ(got.size(), 2u) << "member " << p;
    EXPECT_EQ(got[0].seq, 0u);
    EXPECT_EQ(got[1].seq, 1u);
  }
}

}  // namespace
}  // namespace msw
