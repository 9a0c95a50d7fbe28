// Randomized switch fuzzer with a trace-property oracle.
//
// Each iteration derives everything from one 64-bit seed: a random group
// size, network conditions, workload, switch-request timings, and a
// FaultSchedule (net/fault.hpp). It runs the hybrid switching stack to
// quiescence, then checks the captured trace against the executable
// oracle:
//
//   - no spurious deliveries (every Deliver has a matching Send),
//   - no duplicate deliveries (at-most-once per process),
//   - SP's old-before-new guarantee (per-process delivery epochs are
//     non-decreasing, and every message is delivered in one epoch
//     globally — via SwitchLayer's epoch tap),
//   - agreement + Total Order, No Replay, and Reliability (the Table 1
//     properties the active protocols claim),
//   - convergence (all members on one epoch, buffers drained).
//
// On failure the fault schedule is shrunk by delta-debugging over fault
// atoms (an outage and its recovery shrink together, so a reduced schedule
// never fails merely because a partition was left unhealed), producing a
// one-line reproducer: seed + shrunk schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/fault.hpp"

namespace msw {

struct FuzzConfig {
  std::size_t min_members = 2;
  std::size_t max_members = 8;
  /// Include node crash/restart faults in generated schedules.
  bool enable_crash = false;
  /// Compose a ReliableLayer underneath the hybrid switching stack so the
  /// campaign also exercises the NACK/ack control plane (range NACKs,
  /// delta ack vectors, GC eviction) under randomized loss and faults.
  bool reliable_base = false;
  /// DELIBERATE SP BUG (oracle self-test): members ignore sender 0's count
  /// in the drain check, so they can switch before draining its messages.
  bool inject_flush_bug = false;
  /// Maximum simulation re-runs the shrinker may spend per failure.
  std::size_t shrink_budget = 200;
  /// Arm per-node telemetry rings (of the hub's default capacity) during
  /// execution and export the trace / metrics documents on every iteration
  /// (FuzzIteration string fields). Failures capture a flight record
  /// regardless of this flag.
  bool capture_telemetry = false;
  /// Attach the streaming property monitors (src/monitor/) alongside the
  /// buffered trace oracle and record their independent verdict in
  /// FuzzIteration::monitor_ok / monitor_reason — the oracle-parity path.
  bool attach_monitors = false;
  /// DELIBERATE SEQUENCER BUG (monitor self-test): the sequencer never
  /// refills its own delivery gaps from local history, re-introducing the
  /// historical crashed-sequencer reliability bug.
  bool inject_selfnack_bug = false;
  /// Drive the hybrid with the adaptive PolicyOracle instead of the manual
  /// one: switches then come from the policy engine reacting to the
  /// iteration's randomized load/loss/churn (scripted switch requests still
  /// fire on top). The oracle-under-churn campaign.
  bool adaptive_oracle = false;
};

struct FuzzIteration {
  std::uint64_t seed = 0;
  bool ok = true;
  /// First oracle violation (empty when ok).
  std::string reason;
  /// trace_digest of the captured trace — the cross-run determinism
  /// fingerprint.
  std::uint64_t digest = 0;
  std::size_t members = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  /// Local switchovers completed, maxed over members (every member switches
  /// on every epoch change, so this is the epoch distance travelled) — the
  /// oscillation signal for adaptive-oracle campaigns.
  std::uint64_t switches = 0;
  FaultSchedule schedule;
  /// Streaming-monitor verdict (meaningful only with cfg.attach_monitors):
  /// the monitors consume the same run as a telemetry stream and judge it
  /// independently of the buffered trace oracle.
  bool monitor_ok = true;
  std::string monitor_reason;
  /// MonitorSet::state_cells() at quiescence — the bounded-memory witness.
  std::size_t monitor_cells = 0;
  /// Per-member end state ("i: epoch=E switching=S buffered=B" lines) —
  /// diagnostic detail for replaying reproducers.
  std::string state;
  /// Telemetry exports, populated only when cfg.capture_telemetry: Chrome
  /// trace_event JSON, the JSONL event dump, the metrics JSON document,
  /// and the one-line metrics summary.
  std::string chrome_trace;
  std::string events_jsonl;
  std::string metrics_json;
  std::string metrics_summary;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string reason;
  /// Shrunk schedule still reproducing the failure.
  FaultSchedule schedule;
  /// schedule.weight() after shrinking (events + active knobs).
  std::size_t weight = 0;
  /// One-line command reproducing the failure.
  std::string repro;
  /// Flight-recorder dump (JSONL, header line first): the last events per
  /// node from re-running the shrunk schedule with tracing armed. Written
  /// next to the repro by fuzz_switch as flight_seed<seed>.jsonl.
  std::string flight_record;
};

struct FuzzSummary {
  std::size_t iterations = 0;
  std::vector<FuzzFailure> failures;
  /// Hash-chain over every iteration's trace digest: equal across runs iff
  /// the whole campaign was bit-identical.
  std::uint64_t corpus_digest = 0;
};

/// Run one iteration. When `schedule_override` is non-null it replaces the
/// seed-derived fault schedule (repro and shrinking); everything else still
/// derives from `seed`.
FuzzIteration run_fuzz_iteration(std::uint64_t seed, const FuzzConfig& cfg,
                                 const FaultSchedule* schedule_override = nullptr);

/// Shrink a failing iteration's schedule to a locally-minimal one.
FuzzFailure shrink_failure(const FuzzIteration& failed, const FuzzConfig& cfg);

/// Run `iters` iterations seeded base_seed, base_seed + 1, ...; failures
/// are shrunk as they appear. `on_iteration` (optional) observes every
/// iteration (e.g. progress output) and may stop the campaign early by
/// returning false — used for wall-clock budgets.
FuzzSummary run_fuzz(std::uint64_t base_seed, std::size_t iters, const FuzzConfig& cfg,
                     const std::function<bool(const FuzzIteration&)>& on_iteration = {});

}  // namespace msw
