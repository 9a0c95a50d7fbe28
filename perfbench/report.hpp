// The per-layer bill of a traced run, in the fixed metric set every
// workload prints. Layers a workload bypasses report 0.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "probes.hpp"

namespace pb {

struct LayerInputs {
  /// Application multicasts in the billed window (the load phase).
  std::uint64_t multicasts = 0;
  Recorder::Bill bill;
  /// Hold samples (µs) per layer; empty for layers the stack lacks.
  std::array<std::vector<double>, kLayerCount> holds;

  // SP (switch) and its oracle.
  double idle_token_hops_per_s = 0;
  double token_hops_per_s = 0;
  std::vector<double> switch_duration_ms;  // initiator NORMAL capture -> FLUSH return
  std::vector<double> switch_install_ms;   // request/decision -> new epoch delivered everywhere
  std::uint64_t switches = 0;
  std::uint64_t max_buffered = 0;
  std::uint64_t sp_token_retx = 0;
  TimedOracle::Counts oracle;

  // Protocol counters, summed over members.
  std::uint64_t seq_gap_nacks = 0, seq_retx = 0, seq_request_retx = 0;
  std::uint64_t token_visits = 0, token_retx = 0;
  std::uint64_t rel_nacks = 0, rel_retx = 0, rel_dups = 0;

  // Runtime (executor + transport).
  std::vector<double> inbox_wait_us;
  std::vector<double> transit_us;
  std::uint64_t rt_packets = 0, rt_drops = 0, rt_tasks = 0;
  double rt_wakeups_per_s = 0;
  double rt_shard_busy = 0;

  // Simulator.
  std::uint64_t sim_events = 0, net_packets = 0, net_bytes = 0;
};

/// Add the stats() counters of a traced group's layers to `in`.
void add_counters(LayerInputs& in, const TracedLayers& layers);

std::vector<Metric> layer_metrics(LayerInputs& in);

}  // namespace pb
