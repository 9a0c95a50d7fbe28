// net_loop: the protocol stacks from the simulator, running over real UDP.
//
// Builds a reliable-FIFO group whose members are real UDP sockets on
// 127.0.0.1, driven by a sharded epoll executor — the exact same layer
// code the deterministic simulator runs, with only the Transport under the
// stacks swapped. Each member multicasts a stream of numbered
// messages; the loop waits until every copy is delivered everywhere (the
// ReliableLayer's NACK machinery recovers any datagram the kernel
// dropped), then prints per-member delivery counts, transport stats, and a
// final observability summary (loop lag, end-to-end latency percentiles).
//
//   ./net_loop [--nodes N] [--msgs M] [--shards S] [--loopback]
//              [--stats-interval MS] [--stats-out FILE] [--trace-out FILE]
//
// --loopback swaps the UDP sockets for the in-process threaded backend
// (useful where the sandbox forbids sockets; also what CI's TSan job runs).
// --stats-interval renders the live single-line dashboard on stderr every
// MS milliseconds; --stats-out additionally writes the JSONL time-series
// (one line per shard per tick). --trace-out dumps a Chrome/Perfetto trace
// with the per-shard flight view at exit.
//
// Exit codes: 0 = full delivery; 1 = delivery shortfall; 2 = the UDP
// transport's drop accounting disagrees with what was delivered
// (delivered + dropped > sent would mean copies appeared from nowhere).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "rt/loopback_transport.hpp"
#include "rt/rt_group.hpp"
#include "rt/stats/publisher.hpp"
#include "rt/stats/stats_plane.hpp"
#include "rt/udp_transport.hpp"
#include "switch/hybrid.hpp"
#include "telemetry/export.hpp"
#include "telemetry/hub.hpp"

using namespace msw;

int main(int argc, char** argv) {
  std::size_t nodes = 4;
  std::size_t msgs = 200;
  std::size_t shards = 2;
  bool loopback = false;
  long stats_interval_ms = 0;
  std::string stats_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--msgs") == 0 && i + 1 < argc) {
      msgs = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--loopback") == 0) {
      loopback = true;
    } else if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval_ms = std::stol(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  if (!loopback && !UdpTransport::available()) {
    std::printf("UDP loopback unavailable here; falling back to the threaded backend\n");
    loopback = true;
  }

  Executor ex(shards);
  std::unique_ptr<ThreadedTransport> transport;
  if (loopback) {
    transport = std::make_unique<LoopbackTransport>(ex);
  } else {
    transport = std::make_unique<UdpTransport>(ex);
  }

  // The observability plane installs its per-shard loop observers here,
  // before any group (and its timers) exists.
  RtStatsPlane stats(ex, transport.get());

  // Tracing (the Perfetto flight view) needs a hub; the group wires it to
  // the transport's wall clock and registers the node->shard pinning.
  std::unique_ptr<TelemetryHub> hub;
  if (!trace_out.empty()) {
    hub = std::make_unique<TelemetryHub>();
    hub->enable_tracing(1 << 14);
  }

  // One group, pinned to shard 0. The stack is {ReliableLayer, FifoLayer} —
  // identical factory to the simulator runs in tests/.
  RtGroup group(*transport, nodes, make_reliable_fifo_factory(), /*shard=*/0,
                /*capture_trace=*/false, hub.get());
  stats.attach_group(group, "g0");

  if (!loopback) {
    auto& udp = static_cast<UdpTransport&>(*transport);
    std::printf("members:");
    for (std::size_t i = 0; i < nodes; ++i) {
      std::printf(" node%zu=127.0.0.1:%u", i, unsigned{udp.port_of(group.node(i))});
    }
    std::printf("\n");
  }

  ex.start();
  stats.start();
  group.start();

  StatsPublisherConfig pub_cfg;
  pub_cfg.interval = (stats_interval_ms > 0 ? stats_interval_ms : 500) * kMillisecond;
  pub_cfg.jsonl_path = stats_out;
  pub_cfg.dashboard = stats_interval_ms > 0;
  StatsPublisher publisher(stats, pub_cfg);
  const bool publishing = pub_cfg.dashboard || !stats_out.empty();
  if (publishing) publisher.start();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t m = 0; m < msgs; ++m) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const std::string body = "n" + std::to_string(i) + "#" + std::to_string(m);
      group.send(i, Bytes(body.begin(), body.end()));
    }
  }

  const std::uint64_t expect = std::uint64_t{nodes} * nodes * msgs;
  std::uint64_t got = 0;
  for (int spins = 0; spins < 20000; ++spins) {
    got = group.total_delivered();
    if (got >= expect) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (publishing) publisher.stop();
  for (std::size_t i = 0; i < nodes; ++i) {
    std::printf("node%zu delivered %llu\n", i,
                static_cast<unsigned long long>(group.delivered_at(i)));
  }
  std::printf("delivered %llu/%llu app messages in %.3fs over %s (%llu packets sent",
              static_cast<unsigned long long>(got), static_cast<unsigned long long>(expect),
              secs, loopback ? "threaded loopback" : "UDP",
              static_cast<unsigned long long>(transport->packets_sent()));
  if (!loopback) {
    std::printf(" in %llu datagrams",
                static_cast<unsigned long long>(
                    static_cast<UdpTransport&>(*transport).datagrams_sent()));
  }
  std::printf(", %llu dropped by the medium)\n",
              static_cast<unsigned long long>(transport->packets_dropped()));

  ex.stop();

  // Final stats summary, from a post-stop flush (exact values: the loop
  // threads are joined, so every counter and histogram is settled).
  stats.flush_all();
  const std::vector<StatsSnapshot> snaps = stats.collect();
  const StatsSnapshot::Hist lag = merge_hists(snaps, "rt.loop.lag_us");
  const StatsSnapshot::Hist e2e = merge_hists(snaps, "rt.latency_us.");
  std::printf("stats: delivered=%llu drops=%llu loop_lag_max_us=%llu "
              "e2e_p50_us=%.0f e2e_p99_us=%.0f (%llu samples)\n",
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(transport->packets_dropped()),
              static_cast<unsigned long long>(lag.max), e2e.p50, e2e.p99,
              static_cast<unsigned long long>(e2e.count));

  if (hub != nullptr && !trace_out.empty()) {
    std::ofstream os(trace_out, std::ios::binary);
    write_chrome_trace(*hub, os);
    std::printf("trace written to %s\n", trace_out.c_str());
  }

  // UDP drop accounting: every packet the transport counted as sent either
  // reached a handler, was counted as dropped, or vanished in the kernel
  // inside a lost datagram (uncounted). delivered + dropped > sent means
  // double counting.
  if (!loopback) {
    const std::uint64_t sent = transport->packets_sent();
    const std::uint64_t delivered_dg = transport->packets_delivered();
    const std::uint64_t dropped = transport->packets_dropped();
    if (delivered_dg + dropped > sent) {
      std::fprintf(stderr,
                   "drop accounting disagrees: delivered %llu + dropped %llu > sent %llu\n",
                   static_cast<unsigned long long>(delivered_dg),
                   static_cast<unsigned long long>(dropped),
                   static_cast<unsigned long long>(sent));
      return 2;
    }
  }
  return got == expect ? 0 : 1;
}
