// Million-message soak harness: the correctness plane at perf-plane scale.
//
// One run drives the hybrid switching stack with a continuous mixed
// workload (batched multicasts round-robin across senders), continuous
// membership churn (crash/restart pairs through the PR-2 fault plane, plus
// duplicate/reorder knobs and steady link loss), and periodic protocol
// switches — with the streaming monitors (src/monitor/) attached as the
// telemetry sink and the buffered TraceCapture OFF, so memory stays
// O(members + window) no matter how many messages flow.
//
// On the first violation the run stops and renders a PR-3 flight record
// (the last events per node) as the repro bundle. The result carries the
// peak monitor state-cell count against an O(members)-derived budget: the
// in-process form of the bounded-memory acceptance check.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/time.hpp"

namespace msw {

struct SoakConfig {
  /// Which protocol stack the soak drives.
  ///   kHybrid: the switching sequencer/token stack (periodic switches,
  ///            the hybrid monitor suite: total order + epochs + reliable).
  ///   kCausal: the vector-clock causal broadcast stack over the reliable
  ///            layer (no SwitchLayer, no epochs; causal + reliable
  ///            monitors).
  enum class Stack { kHybrid, kCausal };
  Stack stack = Stack::kHybrid;

  std::uint64_t seed = 1;
  std::size_t members = 12;
  /// Total application sends across the run. In wall-clock budget mode
  /// (budget_seconds > 0) this is the size of ONE round instead.
  std::uint64_t messages = 1'000'000;
  /// Messages per Stack::send_batch call, one call per millisecond
  /// (round-robin over senders).
  std::size_t batch = 8;
  std::size_t payload_bytes = 32;

  /// Steady random loss on every link.
  double loss = 0.01;
  /// One crash/restart pair roughly this often (0 disables churn).
  Duration churn_interval = 10 * kSecond;
  Duration crash_downtime = 1 * kSecond;
  double dup_prob = 0.01;
  double reorder_prob = 0.02;

  /// A protocol switch is requested this often (0 disables switching).
  Duration switch_interval = 5 * kSecond;

  /// Monitor knobs (see MonitorOptions).
  std::uint64_t sample_period = 1;
  std::size_t window_cap = 1 << 15;
  Duration stall_window = 30 * kSecond;

  /// Wall-clock budget mode: when > 0, the soak runs complete rounds of
  /// `messages` sends (each a fresh simulation with a derived seed) until
  /// this many wall seconds have elapsed, then reports the aggregate. The
  /// nightly job uses this to fill its time slot regardless of how fast
  /// the host is; 0 keeps the fixed-message-count behavior.
  double budget_seconds = 0;

  /// Stats time-series: when stats_out is non-empty, one JSONL line (the
  /// stats_io format shared with the rt plane) is appended per
  /// stats_interval of sim time — the aggregate metrics registry plus the
  /// soak's own delivered/cells/violations scalars. The file is truncated
  /// once per run_soak call, so budget-mode rounds append to one series
  /// (t_us restarts per round; "soak.round" disambiguates).
  Duration stats_interval = 1 * kSecond;
  std::string stats_out;
};

struct SoakResult {
  bool ok = false;
  std::string reason;  // first violation (or harness failure) when !ok

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;
  std::uint64_t switches_installed = 0;  // sp.epoch.install events
  std::size_t crashes = 0;
  Time sim_time = 0;
  /// Rounds completed (1 in fixed-count mode; >= 1 in budget mode).
  std::size_t rounds = 1;
  /// Wall seconds consumed (only populated in budget mode).
  double wall_seconds = 0;

  /// Monitor footprint: peak/final MonitorSet::state_cells() against the
  /// members-derived budget (no message-count term — that is the claim).
  std::size_t peak_cells = 0;
  std::size_t final_cells = 0;
  std::size_t cell_budget = 0;

  /// Peak resident set (VmHWM, kB) read from /proc/self/status; 0 when
  /// unavailable.
  std::size_t vm_hwm_kb = 0;

  /// Flight-recorder dump (JSONL), non-empty only on violation.
  std::string flight_record;

  /// One-line machine-grepable summary (also what soak_main prints).
  std::string summary_line;
};

/// The state-cell budget for a given configuration: linear in members and
/// window capacity, with NO term in the message count. The causal stack
/// adds the CausalMonitor's window term (W*(n+2), monitors.hpp).
std::size_t soak_cell_budget(std::size_t members, std::size_t window_cap, bool causal = false);

/// Run one soak. `progress` (optional) is called once per sim-second chunk
/// with the current sim time and total deliveries; return false to abort.
SoakResult run_soak(const SoakConfig& cfg,
                    const std::function<bool(Time, std::uint64_t)>& progress = {});

}  // namespace msw
