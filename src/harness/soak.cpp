#include "harness/soak.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>

#include "monitor/monitor_set.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "proto/causal_layer.hpp"
#include "proto/reliable_layer.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"
#include "switch/switch_layer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/stats_io.hpp"

namespace msw {
namespace {

/// Gap between send batches (round-robin over senders).
constexpr Duration kSendInterval = 1 * kMillisecond;
/// Flight-recorder ring capacity per node (rings stay armed so a violation
/// can dump the tail of the run).
constexpr std::size_t kRingCapacity = 1024;
/// Extra sim time allowed for drain/convergence after the last send.
constexpr Duration kDrainLimit = 120 * kSecond;

/// Peak resident set from /proc/self/status (kB); 0 off-Linux.
std::size_t read_vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

/// Crash/restart churn: one pair per interval, node drawn from rng, never
/// two nodes down at once (the downtime fits inside the interval).
FaultSchedule make_churn_schedule(Rng& rng, const SoakConfig& cfg, Time activity_end,
                                  std::size_t* crashes) {
  FaultSchedule s;
  s.dup_prob = cfg.dup_prob;
  s.reorder_prob = cfg.reorder_prob;
  if (cfg.churn_interval == 0) return s;
  for (Time t = cfg.churn_interval; t + cfg.crash_downtime < activity_end;
       t += cfg.churn_interval) {
    FaultEvent crash;
    crash.kind = FaultEvent::Kind::kCrash;
    crash.at = t;
    crash.a = static_cast<std::uint32_t>(rng.index(cfg.members));
    FaultEvent restart = crash;
    restart.kind = FaultEvent::Kind::kRestart;
    restart.at = t + cfg.crash_downtime;
    s.events.push_back(crash);
    s.events.push_back(restart);
    ++*crashes;
  }
  return s;
}

/// The causal arm's stack: vector-clock causal broadcast over the
/// NACK-based reliable layer (tests/test_causal.cpp runs the same shape).
LayerFactory make_causal_factory() {
  return [](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<CausalLayer>());
    layers.push_back(std::make_unique<ReliableLayer>());
    return layers;
  };
}

}  // namespace

std::size_t soak_cell_budget(std::size_t members, std::size_t window_cap, bool causal) {
  // Sum of the per-monitor bounds (monitors.hpp) with slack: MonitorSet n,
  // TotalOrder n + 2W, Epoch 3n, Reliable n + n^2 * (2 + runs) where the
  // interval runs per pair get 16 cells of fragmentation headroom. The
  // budget deliberately has NO term in the message count. The causal
  // stack swaps TotalOrder+Epoch for CausalMonitor, whose in-flight window
  // holds up to W entries of a vector clock each: W*(n+2) more cells.
  const std::size_t base = 6 * members + 18 * members * members + 2 * window_cap + 64;
  return causal ? base + window_cap * (members + 2) : base;
}

namespace {

SoakResult run_soak_once(const SoakConfig& cfg,
                         const std::function<bool(Time, std::uint64_t)>& progress,
                         std::ostream* stats_os, std::size_t round) {
  const bool causal = cfg.stack == SoakConfig::Stack::kCausal;
  SoakResult res;
  res.cell_budget = soak_cell_budget(cfg.members, cfg.window_cap, causal);

  Simulation sim(cfg.seed);
  sim.enable_tracing(kRingCapacity);  // flight-recorder tail per node

  NetConfig nc;
  nc.base_latency = 1 * kMillisecond;
  nc.jitter = 500 * kMicrosecond;
  nc.loopback_latency = 20 * kMicrosecond;
  nc.cpu_send = 0;
  nc.cpu_recv = 0;
  nc.bandwidth_bps = 0;
  nc.wire_overhead_bytes = 0;
  nc.loss = cfg.loss;
  Network net(sim.scheduler(), sim.fork_rng(), nc);

  MonitorOptions mopts;
  mopts.members = cfg.members;
  mopts.sample_period = cfg.sample_period;
  mopts.window_cap = cfg.window_cap;
  mopts.stall_window = cfg.stall_window;
  mopts.check_epoch_consistency = !causal;  // no SwitchLayer, no SP epochs
  MonitorSet monitors(sim.telemetry(), mopts);
  if (causal) {
    monitors.add_causal();
    monitors.add_reliable();
  } else {
    monitors.attach_hybrid_suite();
  }

  // Buffered trace capture OFF: the monitors are the correctness plane.
  Group group(sim, net, cfg.members,
              causal ? make_causal_factory() : make_hybrid_total_order_factory(),
              /*capture_trace=*/false);
  Group* gp = &group;

  const std::uint64_t total_batches =
      (cfg.messages + cfg.batch - 1) / std::max<std::size_t>(cfg.batch, 1);
  const Time send_start = 100 * kMillisecond;
  const Time activity_end = send_start + static_cast<Time>(total_batches) * kSendInterval;

  Rng churn_rng = sim.fork_rng();
  const FaultSchedule schedule = make_churn_schedule(churn_rng, cfg, activity_end, &res.crashes);
  FaultPlane plane(net, sim.fork_rng(), schedule);
  plane.install();
  group.start();

  // Self-rescheduling send pump (pre-scheduling 10^6+ closures would make
  // the scheduler itself the memory hog).
  struct Pump {
    Group* group;
    Scheduler* sched;
    std::size_t batch;
    std::uint64_t remaining;
    std::size_t next_sender = 0;
    Bytes payload;

    void tick() {
      const std::size_t k =
          static_cast<std::size_t>(std::min<std::uint64_t>(batch, remaining));
      std::vector<Bytes> bodies(k, payload);
      group->send_batch(next_sender, std::move(bodies));
      remaining -= k;
      next_sender = (next_sender + 1) % group->size();
      if (remaining > 0) sched->at(sched->now() + kSendInterval, [this] { tick(); });
    }
  };
  Pump pump{gp, &sim.scheduler(), cfg.batch, cfg.messages, 0,
            Bytes(cfg.payload_bytes, Byte{0x5a})};
  sim.scheduler().at(send_start, [&pump] { pump.tick(); });

  if (cfg.switch_interval != 0 && !causal) {
    std::size_t initiator = 0;
    for (Time t = send_start + cfg.switch_interval; t < activity_end;
         t += cfg.switch_interval) {
      sim.scheduler().at(t, [gp, i = initiator] { switch_layer_of(gp->stack(i)).request_switch(); });
      initiator = (initiator + 1) % cfg.members;
    }
  }

  // Stats time-series: one stats_io JSONL line per stats_interval of sim
  // time, from the aggregate registry (counters; the aggregate view skips
  // gauges/histograms) plus the soak's own footprint scalars.
  Time next_stats = cfg.stats_interval;
  const auto emit_stats = [&] {
    if (stats_os == nullptr) return;
    StatsSnapshot snap = snapshot_from_registry("soak", static_cast<std::uint64_t>(sim.now()),
                                                sim.telemetry().aggregate_metrics());
    snap.scalars.push_back({"soak.round", static_cast<std::uint64_t>(round)});
    snap.scalars.push_back({"soak.delivered", group.total_delivered()});
    snap.scalars.push_back({"soak.monitor.cells",
                            static_cast<std::uint64_t>(monitors.state_cells())});
    snap.scalars.push_back({"soak.monitor.violations", monitors.violations().total()});
    write_stats_line(*stats_os, snap);
  };

  // Main loop: 1 s sim chunks; after each, scan for stalls, track the
  // monitor footprint, and stop on the first violation.
  bool aborted = false;
  const auto chunk = [&]() -> bool {
    sim.run_for(1 * kSecond);
    monitors.check_stalls(sim.now());
    res.peak_cells = std::max(res.peak_cells, monitors.state_cells());
    if (stats_os != nullptr && cfg.stats_interval > 0 && sim.now() >= next_stats) {
      next_stats = sim.now() + cfg.stats_interval;
      emit_stats();
    }
    if (progress && !progress(sim.now(), group.total_delivered())) {
      aborted = true;
      return false;
    }
    return monitors.ok();
  };
  while (sim.now() < activity_end && chunk()) {
  }

  // Drain to quiescence: converged epochs, empty SP buffers, delivery count
  // stable for two consecutive chunks.
  if (monitors.ok() && !aborted) {
    const Time drain_end = sim.now() + kDrainLimit;
    std::size_t stable = 0;
    std::uint64_t last_delivered = group.total_delivered();
    while (sim.now() < drain_end && stable < 2 && chunk()) {
      bool converged = true;
      if (!causal) {
        const std::uint64_t epoch0 = switch_layer_of(group.stack(0)).epoch();
        for (std::size_t i = 0; i < cfg.members; ++i) {
          SwitchLayer& sl = switch_layer_of(group.stack(i));
          if (sl.epoch() != epoch0 || sl.switching() || sl.buffered() != 0) converged = false;
        }
      }
      const std::uint64_t delivered = group.total_delivered();
      stable = converged && delivered == last_delivered ? stable + 1 : 0;
      last_delivered = delivered;
    }
    monitors.finalize(sim.now());
  }

  emit_stats();  // final settled line, so short runs still leave one sample

  res.sent = group.total_sent();
  res.delivered = group.total_delivered();
  res.sim_time = sim.now();
  res.switches_installed = monitors.epoch() ? monitors.epoch()->installs() : 0;
  res.final_cells = monitors.state_cells();
  res.peak_cells = std::max(res.peak_cells, res.final_cells);
  res.violations = monitors.violations().total();
  res.vm_hwm_kb = read_vm_hwm_kb();

  res.ok = monitors.ok() && !aborted;
  if (aborted) {
    res.reason = "aborted by progress callback";
  } else if (!monitors.ok()) {
    res.reason = monitors.first_reason();
  } else if (res.peak_cells > res.cell_budget) {
    // The bounded-memory acceptance check, asserted in-process.
    res.ok = false;
    std::ostringstream os;
    os << "monitor state exceeded budget: peak " << res.peak_cells << " cells > budget "
       << res.cell_budget;
    res.reason = os.str();
  } else if (res.sent != cfg.messages) {
    res.ok = false;
    std::ostringstream os;
    os << "harness sent " << res.sent << " of " << cfg.messages << " messages";
    res.reason = os.str();
  }

  if (!res.ok) {
    std::ostringstream flight;
    write_flight_record(sim.telemetry(), flight, res.reason);
    res.flight_record = flight.str();
  }

  std::ostringstream sum;
  sum << "soak stack=" << (causal ? "causal" : "hybrid") << " seed=" << cfg.seed
      << " members=" << cfg.members << " sent=" << res.sent
      << " delivered=" << res.delivered << " switches=" << res.switches_installed
      << " crashes=" << res.crashes << " violations=" << res.violations
      << " peak_cells=" << res.peak_cells << " cell_budget=" << res.cell_budget
      << " vm_hwm_kb=" << res.vm_hwm_kb << " sim_s=" << res.sim_time / kSecond << " "
      << (res.ok ? "OK" : "FAIL: " + res.reason);
  res.summary_line = sum.str();
  return res;
}

}  // namespace

SoakResult run_soak(const SoakConfig& cfg,
                    const std::function<bool(Time, std::uint64_t)>& progress) {
  std::ofstream stats_file;
  std::ostream* stats_os = nullptr;
  if (!cfg.stats_out.empty()) {
    stats_file.open(cfg.stats_out, std::ios::out | std::ios::trunc);
    if (stats_file.is_open()) stats_os = &stats_file;
  }

  if (cfg.budget_seconds <= 0) return run_soak_once(cfg, progress, stats_os, 0);

  // Wall-clock budget mode: complete rounds of cfg.messages sends, each a
  // fresh simulation under a derived seed, until the deadline. A round
  // always finishes (partial rounds would skew the sent/delivered
  // accounting); the budget steers how many rounds fit.
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  SoakResult agg;
  agg.ok = true;
  agg.rounds = 0;
  do {
    SoakConfig round_cfg = cfg;
    round_cfg.seed = cfg.seed + agg.rounds;
    round_cfg.budget_seconds = 0;
    const SoakResult r = run_soak_once(round_cfg, progress, stats_os, agg.rounds);
    ++agg.rounds;
    agg.sent += r.sent;
    agg.delivered += r.delivered;
    agg.violations += r.violations;
    agg.switches_installed += r.switches_installed;
    agg.crashes += r.crashes;
    agg.sim_time += r.sim_time;
    agg.peak_cells = std::max(agg.peak_cells, r.peak_cells);
    agg.final_cells = r.final_cells;
    agg.cell_budget = r.cell_budget;
    agg.vm_hwm_kb = std::max(agg.vm_hwm_kb, r.vm_hwm_kb);
    if (!r.ok) {
      agg.ok = false;
      agg.reason = "round " + std::to_string(agg.rounds - 1) + ": " + r.reason;
      agg.flight_record = r.flight_record;
      break;
    }
  } while (elapsed() < cfg.budget_seconds);
  agg.wall_seconds = elapsed();

  std::ostringstream sum;
  sum << "soak stack=" << (cfg.stack == SoakConfig::Stack::kCausal ? "causal" : "hybrid")
      << " budget_s=" << cfg.budget_seconds << " rounds=" << agg.rounds
      << " wall_s=" << agg.wall_seconds << " sent=" << agg.sent
      << " delivered=" << agg.delivered << " switches=" << agg.switches_installed
      << " crashes=" << agg.crashes << " violations=" << agg.violations
      << " peak_cells=" << agg.peak_cells << " cell_budget=" << agg.cell_budget
      << " vm_hwm_kb=" << agg.vm_hwm_kb << " sim_s=" << agg.sim_time / kSecond << " "
      << (agg.ok ? "OK" : "FAIL: " + agg.reason);
  agg.summary_line = sum.str();
  return agg;
}

}  // namespace msw
