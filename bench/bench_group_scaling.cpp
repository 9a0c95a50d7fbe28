// E9 — ablation beyond the paper: how the two total-order mechanisms
// scale with GROUP SIZE at fixed light load, and how the reliable layer's
// control plane scales to large groups under loss.
//
// The paper's Figure 2 varies the number of senders at n = 10; the first
// sweep varies n itself with 2 active senders. It isolates the structural
// difference the paper describes: token latency is about half a ring
// rotation, so it grows linearly with n; the sequencer path is two hops
// regardless of n (its problem is senders, not members).
//
// The second sweep is the control-plane scaling experiment: peer-assisted
// reliable multicast at n in {16, 64, 128} with 1% per-copy loss, reporting
// NACK and ack-vector bytes per delivered message of the range/varint
// control encoding. `--json F` writes the rows as BENCH JSON for CI;
// `--max-n N` truncates the sweep (CI smoke runs it at 64).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "calibration.hpp"
#include "proto/reliable_layer.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"

namespace msw::bench {
namespace {

double run_one(const LayerFactory& factory, std::size_t members) {
  Simulation sim(kSeed);
  Network net(sim.scheduler(), sim.fork_rng(), era_network());
  Group group(sim, net, members, factory);
  group.start();
  WorkloadConfig cfg = paper_workload(2);
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.drain = 5 * kSecond;
  const auto res = run_workload(sim, group, cfg);
  return res.latency_ms.mean();
}

/// One reliable control-plane measurement: n members, 1% loss, 2 senders.
struct ControlRow {
  std::size_t members = 0;
  std::uint64_t delivered = 0;       // app deliveries across all members
  std::uint64_t missing = 0;         // 0 = ran to completion
  std::uint64_t nack_bytes = 0;      // summed over every member's layer
  std::uint64_t nack_entries = 0;    // missing ranges requested
  std::uint64_t ack_bytes = 0;
  std::uint64_t retransmissions = 0;
  double nack_bytes_per_delivery() const {
    return delivered ? static_cast<double>(nack_bytes) / static_cast<double>(delivered) : 0.0;
  }
  double ack_bytes_per_delivery() const {
    return delivered ? static_cast<double>(ack_bytes) / static_cast<double>(delivered) : 0.0;
  }
};

ControlRow run_control(std::size_t members) {
  Simulation sim(kSeed);
  // Protocol-logic network: exact 1 ms hops, no CPU/bandwidth modelling —
  // the measured quantity is control bytes, not queueing — plus 1% loss so
  // the NACK/ack machinery does real work at scale.
  NetConfig net_cfg;
  net_cfg.base_latency = 1 * kMillisecond;
  net_cfg.jitter = 0;
  net_cfg.loopback_latency = 20;
  net_cfg.cpu_send = 0;
  net_cfg.cpu_recv = 0;
  net_cfg.bandwidth_bps = 0;
  net_cfg.wire_overhead_bytes = 0;
  net_cfg.loss = 0.01;
  Network net(sim.scheduler(), sim.fork_rng(), net_cfg);

  std::vector<ReliableLayer*> layers;
  ReliableConfig rcfg;
  rcfg.peer_assist = true;
  const LayerFactory factory = [&layers, rcfg](NodeId, const std::vector<NodeId>&) {
    auto l = std::make_unique<ReliableLayer>(rcfg);
    layers.push_back(l.get());
    std::vector<std::unique_ptr<Layer>> out;
    out.push_back(std::move(l));
    return out;
  };
  Group group(sim, net, members, factory);
  group.start();

  WorkloadConfig cfg;
  cfg.senders = 2;
  cfg.rate_per_sender = 50.0;
  cfg.duration = 3 * kSecond;
  cfg.warmup = 500 * kMillisecond;
  cfg.drain = 5 * kSecond;
  cfg.body_size = 64;
  cfg.poisson = true;
  const auto res = run_workload(sim, group, cfg);

  ControlRow row;
  row.members = members;
  row.delivered = res.delivered;
  row.missing = res.missing_deliveries;
  for (const ReliableLayer* l : layers) {
    const auto s = l->stats();
    row.nack_bytes += s.nack_bytes_sent;
    row.nack_entries += s.nack_entries_sent;
    row.ack_bytes += s.ack_bytes_sent;
    row.retransmissions += s.retransmissions;
  }
  return row;
}

void write_json(const std::string& path, const std::vector<ControlRow>& rows) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"bench\": \"group_scaling_reliable_control\",\n  \"loss\": 0.01,\n"
     << "  \"senders\": 2,\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ControlRow& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"members\": %zu, \"encoding\": \"%s\", \"delivered\": %llu, "
                  "\"missing\": %llu, \"nack_bytes\": %llu, \"nack_entries\": %llu, "
                  "\"ack_bytes\": %llu, \"retransmissions\": %llu, "
                  "\"nack_bytes_per_delivery\": %.4f, \"ack_bytes_per_delivery\": %.4f}%s\n",
                  r.members, "range",
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.missing),
                  static_cast<unsigned long long>(r.nack_bytes),
                  static_cast<unsigned long long>(r.nack_entries),
                  static_cast<unsigned long long>(r.ack_bytes),
                  static_cast<unsigned long long>(r.retransmissions),
                  r.nack_bytes_per_delivery(), r.ack_bytes_per_delivery(),
                  i + 1 < rows.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::fprintf(stderr, "bench json written to %s\n", path.c_str());
}

int run(std::size_t max_n, const std::string& json_out, const TelemetryOpts& telem) {
  title("Group-size scaling (ablation): latency vs. members, 2 senders x 50 msg/s");
  std::printf("%-8s %14s %14s %12s\n", "members", "sequencer(ms)", "token(ms)",
              "token/seq");
  rule(56);
  double seq_2 = 0, seq_16 = 0, tok_2 = 0, tok_16 = 0;
  for (std::size_t n = 2; n <= std::min<std::size_t>(16, max_n); n += 2) {
    const double s = run_one(make_sequencer_factory(sequencer_config()), n);
    const double t = run_one(make_token_factory(token_config()), n);
    std::printf("%-8zu %14.2f %14.2f %12.1f\n", n, s, t, t / s);
    if (n == 2) {
      seq_2 = s;
      tok_2 = t;
    }
    if (n == 16) {
      seq_16 = s;
      tok_16 = t;
    }
  }
  rule(56);
  if (seq_16 > 0) {
    std::printf(
        "structure check: token latency grew %.1fx from n=2 to n=16 (half a ring\n"
        "rotation is O(n)); sequencer latency grew %.1fx (two hops regardless of n).\n"
        "This is why the paper's trade-off is about ACTIVE SENDERS, not group size.\n",
        tok_16 / tok_2, seq_16 / seq_2);
  }

  title("Reliable control plane at scale: peer assist, 1% loss, range frames");
  std::printf("%-8s %-8s %10s %8s %12s %12s %12s %8s\n", "members", "encoding", "delivered",
              "missing", "nack B", "nack B/msg", "ack B/msg", "retx");
  rule(84);
  std::vector<ControlRow> rows;
  bool ok = true;
  for (std::size_t n : {std::size_t{16}, std::size_t{64}, std::size_t{128}}) {
    if (n > max_n) continue;
    const ControlRow row = run_control(n);
    rows.push_back(row);
    std::printf("%-8zu %-8s %10llu %8llu %12llu %12.3f %12.3f %8llu\n", n, "range",
                static_cast<unsigned long long>(row.delivered),
                static_cast<unsigned long long>(row.missing),
                static_cast<unsigned long long>(row.nack_bytes), row.nack_bytes_per_delivery(),
                row.ack_bytes_per_delivery(), static_cast<unsigned long long>(row.retransmissions));
    if (row.missing != 0) {
      std::printf("WARNING: n=%zu did not run to completion\n", n);
      ok = false;
    }
  }
  rule(84);
  if (rows.size() >= 2) {
    // Claim: the delta ack vectors keep the ack plane below O(n) bytes per
    // delivery. A full vector per member per tick (the retired fixed-width
    // format) grew by about as much as n did: 4.07x for 4x n.
    const ControlRow& lo = rows.front();
    const ControlRow& hi = rows.back();
    const double n_growth = static_cast<double>(hi.members) / static_cast<double>(lo.members);
    const double ack_growth = hi.ack_bytes_per_delivery() / lo.ack_bytes_per_delivery();
    const bool sublinear = ack_growth < n_growth;
    std::printf("ack B/msg grew %.2fx for %.0fx members (n=%zu to %zu): %s than n.\n",
                ack_growth, n_growth, lo.members, hi.members,
                sublinear ? "slower" : "NOT slower");
    ok = ok && sublinear;
  }

  if (!json_out.empty()) write_json(json_out, rows);

  if (telem.armed()) {
    // One representative traced run for --trace-out/--metrics-out.
    Simulation sim(kSeed);
    sim.enable_tracing();
    Network net(sim.scheduler(), sim.fork_rng(), era_network());
    Group group(sim, net, std::min<std::size_t>(16, max_n),
                make_sequencer_factory(sequencer_config()));
    group.start();
    WorkloadConfig cfg = paper_workload(2);
    cfg.duration = 2 * kSecond;
    cfg.warmup = 500 * kMillisecond;
    cfg.drain = 2 * kSecond;
    run_workload(sim, group, cfg);
    export_telemetry(sim, telem);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace msw::bench

int main(int argc, char** argv) {
  std::size_t max_n = 128;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-n") == 0 && i + 1 < argc) {
      max_n = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    }
  }
  const msw::bench::TelemetryOpts telem = msw::bench::parse_telemetry_flags(argc, argv);
  return msw::bench::run(max_n, json_out, telem);
}
