// Real-transport throughput: msgs/sec/core for the reliable-FIFO stack
// over loopback UDP (or the threaded in-process backend with --loopback).
//
// Topology: G groups of n nodes, one group per executor shard — the
// runtime's unit of parallelism. Every node multicasts rounds of small
// payloads with a bounded in-flight window (the pacer waits when the gap
// between sends and deliveries exceeds the window, so the kernel socket
// buffers aren't asked to absorb the whole run at once). Wall time covers
// first send to last delivery; a delivery is one application-level
// message arriving at one member, so
//     deliveries/sec = unique msgs/sec * n.
// msgs/sec/core divides unique multicasts completed per second by the
// number of worker cores (G shards), the honest per-core figure for a
// medium where CPU time is real rather than simulated.
//
//   ./bench_rt_throughput [--json F] [--loopback] [--groups G] [--scale X]
//                         [--stats-interval MS]
//
// Emits BENCH_rt.json (or F) with one row per n in {2, 8, 32}, including
// end-to-end latency percentiles (p50/p99/p999 µs) from the rt stats plane,
// the frames the stacks sent and, over UDP, the datagrams that carried
// them (each bundles one pass's frames to one destination).
// --stats-interval renders the live dashboard on stderr during each cell.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/stats/publisher.hpp"
#include "rt/stats/stats_plane.hpp"
#include "rt/udp_transport.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"

using namespace msw;

namespace {

struct Row {
  std::size_t n = 0;
  std::size_t groups = 0;
  std::uint64_t unique_msgs = 0;   // multicasts completed, all groups
  std::uint64_t deliveries = 0;    // app-level deliveries, all groups
  double wall_s = 0;
  double cpu_s = 0;                 // process CPU (user+sys, all threads)
  double msgs_per_sec = 0;          // unique msgs/sec, all cores
  double msgs_per_sec_per_core = 0; // unique msgs/sec / worker shards
  double msgs_per_cpu_sec = 0;      // unique msgs per CPU-second burned
  double deliveries_per_sec = 0;
  std::uint64_t frames_sent = 0;     // the stacks' frames, one per copy
  std::uint64_t frames_dropped = 0;
  std::uint64_t datagrams_sent = 0;  // UDP bundles; 0 on the loopback backend
  // End-to-end wall latency (send stamp -> delivery, µs), merged over all
  // groups. Zero when the build has MSW_RT_STATS=OFF.
  std::uint64_t lat_count = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
};

Row run_one(std::size_t n, std::size_t groups, std::size_t rounds, bool loopback,
            long stats_interval_ms) {
  Executor ex(groups);
  std::unique_ptr<ThreadedTransport> transport;
  UdpTransport* udp = nullptr;
  if (loopback) {
    transport = std::make_unique<LoopbackTransport>(ex);
  } else {
    transport = std::make_unique<UdpTransport>(ex);
    udp = static_cast<UdpTransport*>(transport.get());
  }
  RtStatsPlane stats(ex, transport.get());

  std::vector<std::unique_ptr<Group>> gs;
  gs.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    gs.push_back(std::make_unique<Group>(*transport, n, make_reliable_fifo_factory(), g,
                                         /*capture_trace=*/false, /*hub=*/nullptr,
                                         /*seed=*/0x5eed0000 + g));
    stats.attach_group(*gs.back(), "g" + std::to_string(g));
  }
  ex.start();
  stats.start();
  for (auto& g : gs) g->start();

  StatsPublisherConfig pub_cfg;
  pub_cfg.interval = (stats_interval_ms > 0 ? stats_interval_ms : 500) * kMillisecond;
  pub_cfg.dashboard = stats_interval_ms > 0;
  StatsPublisher publisher(stats, pub_cfg);
  if (pub_cfg.dashboard) publisher.start();

  const Bytes body{Byte{0xab}, Byte{0xcd}, Byte{0xef}, Byte{0x01},
                   Byte{0x23}, Byte{0x45}, Byte{0x67}, Byte{0x89}};
  const std::uint64_t expect_deliveries = std::uint64_t{groups} * n * n * rounds;
  // In-flight cap: at most this many undelivered app-message copies before
  // the pacer waits. Sized to keep socket buffers comfortable at n=32.
  const std::uint64_t window = std::uint64_t{groups} * n * 2048;

  // Process CPU (all threads) alongside wall: the wall figure is hostage
  // to scheduler luck on shared runners, while CPU-seconds per message is
  // stable under preemption — it is what the stats-overhead gate compares.
  const auto cpu_of = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
  };
  const double cpu0 = cpu_of();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sent_copies = 0;  // sends * n so far
  for (std::size_t r = 0; r < rounds; ++r) {
    for (auto& g : gs) {
      for (std::size_t i = 0; i < n; ++i) {
        g->post([&group = *g, i, b = body]() mutable { group.send(i, std::move(b)); });
      }
    }
    sent_copies += std::uint64_t{groups} * n * n;
    if ((r & 15u) == 15u) {
      for (;;) {
        std::uint64_t delivered = 0;
        for (auto& g : gs) delivered += g->total_delivered();
        if (sent_copies - delivered < window) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  std::uint64_t delivered = 0;
  for (int spin = 0; spin < 60000; ++spin) {
    delivered = 0;
    for (auto& g : gs) delivered += g->total_delivered();
    if (delivered >= expect_deliveries) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double cpu = cpu_of() - cpu0;
  if (pub_cfg.dashboard) publisher.stop();
  ex.stop();
  stats.flush_all();
  const std::vector<StatsSnapshot> snaps = stats.collect();
  const StatsSnapshot::Hist e2e = merge_hists(snaps, "rt.latency_us.");

  Row row;
  row.n = n;
  row.groups = groups;
  row.unique_msgs = std::uint64_t{groups} * n * rounds;
  row.deliveries = delivered;
  row.wall_s = wall;
  row.msgs_per_sec = static_cast<double>(row.unique_msgs) / wall;
  row.msgs_per_sec_per_core = row.msgs_per_sec / static_cast<double>(groups);
  row.cpu_s = cpu;
  row.msgs_per_cpu_sec = cpu > 0 ? static_cast<double>(row.unique_msgs) / cpu : 0;
  row.deliveries_per_sec = static_cast<double>(delivered) / wall;
  row.frames_sent = transport->packets_sent();
  row.frames_dropped = transport->packets_dropped();
  row.datagrams_sent = udp != nullptr ? udp->datagrams_sent() : 0;
  row.lat_count = e2e.count;
  row.lat_p50_us = e2e.p50;
  row.lat_p99_us = e2e.p99;
  row.lat_p999_us = e2e.p999;
  return row;
}

void write_json(const std::string& path, const std::string& medium, std::size_t groups,
                const std::vector<Row>& rows) {
  std::ofstream os(path, std::ios::binary);
  os << "{\n  \"bench\": \"rt_throughput\",\n  \"transport\": \"" << medium
     << "\",\n  \"worker_shards\": " << groups << ",\n  \"stack\": \"reliable_fifo\",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"n\": " << r.n << ", \"groups\": " << r.groups
       << ", \"unique_msgs\": " << r.unique_msgs << ", \"deliveries\": " << r.deliveries
       << ", \"wall_s\": " << r.wall_s << ", \"cpu_s\": " << r.cpu_s
       << ", \"msgs_per_sec\": " << r.msgs_per_sec
       << ", \"msgs_per_sec_per_core\": " << r.msgs_per_sec_per_core
       << ", \"msgs_per_cpu_sec\": " << r.msgs_per_cpu_sec
       << ", \"deliveries_per_sec\": " << r.deliveries_per_sec
       << ", \"frames_sent\": " << r.frames_sent
       << ", \"frames_dropped\": " << r.frames_dropped
       << ", \"datagrams_sent\": " << r.datagrams_sent
       << ", \"lat_count\": " << r.lat_count << ", \"lat_p50_us\": " << r.lat_p50_us
       << ", \"lat_p99_us\": " << r.lat_p99_us << ", \"lat_p999_us\": " << r.lat_p999_us
       << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::fprintf(stderr, "bench json written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out = "BENCH_rt.json";
  bool loopback = false;
  std::size_t groups = 2;
  double scale = 1.0;
  long stats_interval_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--loopback") == 0) {
      loopback = true;
    } else if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      groups = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval_ms = std::stol(argv[++i]);
    }
  }
  if (!loopback && !UdpTransport::available()) {
    std::fprintf(stderr, "UDP unavailable; using threaded loopback backend\n");
    loopback = true;
  }
  const std::string medium = loopback ? "threaded_loopback" : "udp_loopback";

  msw::bench::title("Real-transport throughput (" + medium + ")");
  std::printf("  %4s %8s %12s %14s %16s %10s %10s %10s\n", "n", "groups", "unique msgs",
              "msgs/sec", "msgs/sec/core", "drops", "p50 us", "p99 us");
  msw::bench::rule();

  std::vector<Row> rows;
  for (const std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
    // Rounds shrink with n so every cell moves a comparable message volume.
    const auto rounds = static_cast<std::size_t>(scale * (n == 2 ? 2000 : n == 8 ? 400 : 50));
    const Row r = run_one(n, groups, rounds, loopback, stats_interval_ms);
    rows.push_back(r);
    std::printf("  %4zu %8zu %12llu %14.0f %16.0f %10llu %10.0f %10.0f\n", r.n, r.groups,
                static_cast<unsigned long long>(r.unique_msgs), r.msgs_per_sec,
                r.msgs_per_sec_per_core,
                static_cast<unsigned long long>(r.frames_dropped), r.lat_p50_us,
                r.lat_p99_us);
    if (r.deliveries < std::uint64_t{groups} * n * n *
                           static_cast<std::uint64_t>(scale * (n == 2 ? 2000 : n == 8 ? 400 : 50))) {
      std::fprintf(stderr, "warning: n=%zu did not reach full delivery\n", n);
    }
  }
  if (!json_out.empty()) write_json(json_out, medium, groups, rows);
  return 0;
}
