// E8 — micro-costs of the substrate (google-benchmark).
//
// Not a paper artifact: sanity-level numbers for the simulator and
// framework primitives, useful when re-calibrating (a simulated second
// should cost far less than a real one at these event rates).
#include <benchmark/benchmark.h>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "stack/message.hpp"
#include "switch/hybrid.hpp"
#include "trace/generators.hpp"
#include "trace/properties.hpp"
#include "util/digest.hpp"

namespace msw {
namespace {

void BM_WriterReaderRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Bytes buf;
    Writer w(buf);
    w.u32(1);
    w.u64(2);
    w.str("header");
    Reader r(buf);
    benchmark::DoNotOptimize(r.u32());
    benchmark::DoNotOptimize(r.u64());
    benchmark::DoNotOptimize(r.str());
  }
}
BENCHMARK(BM_WriterReaderRoundTrip);

void BM_MessageHeaderPushPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Message m = Message::group(Bytes(64, 'x'));
    for (std::size_t i = 0; i < depth; ++i) {
      m.push_header([&](Writer& w) {
        w.u8(static_cast<std::uint8_t>(i));
        w.u64(i);
      });
    }
    for (std::size_t i = 0; i < depth; ++i) {
      m.pop_header([](Reader& r) {
        r.u8();
        r.u64();
      });
    }
    benchmark::DoNotOptimize(m.data.data());
  }
}
BENCHMARK(BM_MessageHeaderPushPop)->Arg(1)->Arg(4)->Arg(8);

void BM_Mac(benchmark::State& state) {
  const Bytes body(static_cast<std::size_t>(state.range(0)), 'b');
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac(0x1234, 7, body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Mac)->Arg(64)->Arg(1024);

void BM_StreamCrypt(benchmark::State& state) {
  Bytes body(static_cast<std::size_t>(state.range(0)), 'b');
  for (auto _ : state) {
    stream_crypt(0x1234, 7, body);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_StreamCrypt)->Arg(64)->Arg(1024);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.at(i, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.executed());
  }
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerDispatch(benchmark::State& state) {
  // Per-event cost of the hot loop in steady state: one scheduler reused
  // across batches, so slot and heap storage amortize to zero allocation.
  Scheduler s;
  std::uint64_t sink = 0;
  constexpr int kBatch = 1024;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      s.after(1, [&sink] { ++sink; });
    }
    s.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_SchedulerDispatch);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // Schedule-then-cancel half the events: exercises id-based cancellation
  // on the hot path (slot generation check vs. map erase).
  Scheduler s;
  std::uint64_t sink = 0;
  constexpr int kBatch = 1024;
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(s.after(1 + (i % 7), [&sink] { ++sink; }));
    }
    for (int i = 0; i < kBatch; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
    s.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_MulticastFanOut(benchmark::State& state) {
  // N-destination multicast of a 4 KiB body over an ideal network: the
  // fan-out loop is the unit under test. A shared payload makes this N
  // refcount bumps; a deep-copying data plane pays N x 4 KiB per send.
  const int n = static_cast<int>(state.range(0));
  Simulation sim(1);
  NetConfig cfg;
  cfg.base_latency = 1 * kMicrosecond;
  cfg.jitter = 0;
  cfg.loss = 0.0;
  cfg.cpu_send = 0;
  cfg.cpu_recv = 0;
  cfg.bandwidth_bps = 0;
  Network net(sim.scheduler(), sim.fork_rng(), cfg);
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(net.add_node());
  std::uint64_t delivered = 0;
  for (const NodeId id : nodes) {
    net.set_handler(id, [&delivered](Packet p) { delivered += p.data.size(); });
  }
  const Bytes body(4096, 'x');
  for (auto _ : state) {
    net.multicast(nodes[0], nodes, body);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MulticastFanOut)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_BatchedFanOut(benchmark::State& state) {
  // The batched counterpart: one multicast_run of a 16-message run to N
  // destinations. One scatter event per destination per tick and one
  // shared payload vector replace 16 x N per-copy events; items processed
  // counts every copy so per-copy ns is directly comparable to
  // BM_MulticastFanOut.
  constexpr int kRun = 16;
  const int n = static_cast<int>(state.range(0));
  Simulation sim(1);
  NetConfig cfg;
  cfg.base_latency = 1 * kMicrosecond;
  cfg.jitter = 0;
  cfg.loss = 0.0;
  cfg.cpu_send = 0;
  cfg.cpu_recv = 0;
  cfg.bandwidth_bps = 0;
  Network net(sim.scheduler(), sim.fork_rng(), cfg);
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(net.add_node());
  std::uint64_t delivered = 0;
  for (const NodeId id : nodes) {
    net.set_run_handler(id, [&delivered](NodeId, std::span<const Payload> run) {
      for (const Payload& p : run) delivered += p.size();
    });
  }
  std::vector<Payload> run;
  for (int k = 0; k < kRun; ++k) run.emplace_back(Bytes(4096, 'x'));
  for (auto _ : state) {
    net.multicast_run(nodes[0], nodes, run);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * kRun);
}
BENCHMARK(BM_BatchedFanOut)->Arg(32)->Arg(128)->Arg(512);

void BM_BatchedGroupSend(benchmark::State& state) {
  // End-to-end run delivery: a 16-message send_batch through a
  // fifo+reliable stack at every member of an N-member group, ideal cost
  // model. Measures the whole path — each message through every layer,
  // one multicast_run scatter, coalesced delivery events.
  constexpr std::size_t kRun = 16;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Simulation sim(1);
  NetConfig cfg;
  cfg.base_latency = 1 * kMicrosecond;
  cfg.jitter = 0;
  cfg.loss = 0.0;
  cfg.cpu_send = 0;
  cfg.cpu_recv = 0;
  cfg.bandwidth_bps = 0;
  Network net(sim.scheduler(), sim.fork_rng(), cfg);
  Group group(sim, net, n, make_reliable_fifo_factory());
  group.start();
  sim.run_for(kSecond);
  for (auto _ : state) {
    std::vector<Bytes> bodies;
    bodies.reserve(kRun);
    for (std::size_t k = 0; k < kRun; ++k) bodies.emplace_back(256, 'b');
    group.send_batch(0, std::move(bodies));
    // run_for, not run(): the reliable layer's periodic timers reschedule
    // themselves forever. 1 ms covers delivery at 1 us hop latency.
    sim.run_for(kMillisecond);
  }
  benchmark::DoNotOptimize(group.total_delivered());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kRun));
}
BENCHMARK(BM_BatchedGroupSend)->Arg(8)->Arg(32);

void BM_SimulatedSecondSequencer(benchmark::State& state) {
  // Cost of simulating 1 s of a 10-member sequencer group at 250 msg/s.
  for (auto _ : state) {
    Simulation sim(1);
    NetConfig nc;
    nc.cpu_send = 500;
    nc.cpu_recv = 500;
    Network net(sim.scheduler(), sim.fork_rng(), nc);
    Group group(sim, net, 10, make_sequencer_factory());
    group.start();
    for (int k = 0; k < 250; ++k) {
      sim.scheduler().at(k * 4 * kMillisecond,
                         [&group, k] { group.send(static_cast<std::size_t>(k % 5), Bytes(64)); });
    }
    sim.run_until(kSecond);
    benchmark::DoNotOptimize(group.total_delivered());
  }
}
BENCHMARK(BM_SimulatedSecondSequencer)->Unit(benchmark::kMillisecond);

void BM_TotalOrderPropertyCheck(benchmark::State& state) {
  Rng rng(3);
  GenOptions opts;
  opts.n_procs = 6;
  opts.n_msgs = static_cast<std::uint32_t>(state.range(0));
  const Trace tr = gen_total_order_trace(rng, opts);
  TotalOrderProperty prop;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.holds(tr));
  }
}
BENCHMARK(BM_TotalOrderPropertyCheck)->Arg(8)->Arg(32);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(standard_corpus(rng, 4, 4));
  }
}
BENCHMARK(BM_CorpusGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace msw

BENCHMARK_MAIN();
