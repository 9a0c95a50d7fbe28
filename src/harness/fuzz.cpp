#include "harness/fuzz.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "monitor/monitor_set.hpp"
#include "net/network.hpp"
#include "proto/reliable_layer.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"
#include "telemetry/export.hpp"
#include "trace/properties.hpp"
#include "trace/trace.hpp"

namespace msw {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr Time kActivityEnd = 1300 * kMillisecond;  // last send / switch request
constexpr Time kFaultHorizon = 1500 * kMillisecond; // every fault healed by here
constexpr Time kMaxSimTime = 120 * kSecond;

struct IterationPlan {
  std::size_t members = 0;
  NetConfig net;
  FaultSchedule schedule;
  std::vector<std::pair<Time, std::size_t>> sends;     // (when, sender)
  std::vector<std::pair<Time, std::size_t>> switches;  // (when, initiator)
  std::uint64_t initial_epoch = 0;
  bool inject_flush_bug = false;
  bool inject_selfnack_bug = false;
  bool reliable_base = false;
  bool adaptive_oracle = false;
  bool capture_telemetry = false;
  bool attach_monitors = false;
  /// When non-empty, execute() also renders a flight record with this
  /// failure reason (the shrinker's final capture run).
  std::string flight_reason;
};

IterationPlan make_plan(std::uint64_t seed, const FuzzConfig& cfg) {
  Rng rng(mix64(seed ^ 0x5fa7f1ceULL));
  IterationPlan plan;
  plan.members = cfg.min_members + rng.index(cfg.max_members - cfg.min_members + 1);

  // Idealized-latency LAN with randomized jitter and loss: protocol logic
  // (not queueing) is what the fuzzer stresses, and zero CPU/serialization
  // cost keeps iterations fast.
  plan.net.base_latency = 1 * kMillisecond;
  plan.net.jitter = static_cast<Duration>(rng.below(2 * kMillisecond));
  plan.net.loopback_latency = 20;
  plan.net.cpu_send = 0;
  plan.net.cpu_recv = 0;
  plan.net.bandwidth_bps = 0;
  plan.net.wire_overhead_bytes = 0;
  plan.net.loss = rng.chance(0.5) ? rng.uniform() * 0.2 : 0.0;

  FaultGenOptions fopts;
  fopts.max_crashes = cfg.enable_crash ? 1 : 0;
  plan.schedule = generate_fault_schedule(rng, plan.members, kFaultHorizon, fopts);

  const std::size_t messages = 20 + rng.index(60);
  for (std::size_t k = 0; k < messages; ++k) {
    plan.sends.emplace_back(static_cast<Time>(rng.below(1200)) * kMillisecond,
                            rng.index(plan.members));
  }
  const std::size_t switches = 1 + rng.index(3);
  for (std::size_t s = 0; s < switches; ++s) {
    plan.switches.emplace_back(
        100 * kMillisecond + static_cast<Time>(rng.below(1200)) * kMillisecond,
        rng.index(plan.members));
  }
  plan.initial_epoch = rng.chance(0.5) ? 1 : 0;
  plan.inject_flush_bug = cfg.inject_flush_bug;
  plan.inject_selfnack_bug = cfg.inject_selfnack_bug;
  plan.reliable_base = cfg.reliable_base;
  plan.adaptive_oracle = cfg.adaptive_oracle;
  plan.capture_telemetry = cfg.capture_telemetry;
  plan.attach_monitors = cfg.attach_monitors;
  return plan;
}

/// Everything the oracle needs from one run.
struct RunObservation {
  Trace trace;
  std::vector<std::vector<std::uint64_t>> epochs;  // per member, per delivery
  std::vector<std::uint64_t> final_epoch;
  std::vector<bool> switching;
  std::vector<std::size_t> buffered;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t switches = 0;
  // Streaming-monitor verdict (attach_monitors only).
  bool monitor_ok = true;
  std::string monitor_reason;
  std::size_t monitor_cells = 0;
  // Telemetry exports (capture_telemetry only). Rendered inside execute()
  // because the hub dies with the Simulation.
  std::string chrome_trace;
  std::string events_jsonl;
  std::string metrics_json;
  std::string metrics_summary;
  std::string flight_record;
};

RunObservation execute(std::uint64_t seed, const IterationPlan& plan) {
  Simulation sim(mix64(seed ^ 0xf00dULL));
  if (plan.capture_telemetry || !plan.flight_reason.empty()) {
    sim.enable_tracing();
  }
  Network net(sim.scheduler(), sim.fork_rng(), plan.net);

  HybridConfig hybrid;
  hybrid.sp.initial_epoch = plan.initial_epoch;
  if (plan.inject_flush_bug) hybrid.sp.fault_skip_count_sender = 0;
  if (plan.inject_selfnack_bug) hybrid.sequencer.fault_skip_self_refill = true;
  if (plan.adaptive_oracle) {
    // Short iterations need a fast policy: sample quickly, aggregate over a
    // short window, and let the auto-dwell start (and floor) low enough
    // that the engine can actually decide within the activity window.
    PolicyConfig pcfg;
    pcfg.signals.sample_every = 50 * kMillisecond;
    pcfg.window = 500 * kMillisecond;
    pcfg.dwell.initial = 300 * kMillisecond;
    pcfg.dwell.floor = 200 * kMillisecond;
    hybrid.oracle = make_policy_oracle_factory(pcfg);
  }
  LayerFactory factory = make_hybrid_total_order_factory(hybrid);
  if (plan.reliable_base) {
    // Slot a ReliableLayer under the switching stack. Sequencer/token do
    // their own retransmission, so the base layer is exercised as extra
    // dedup + NACK machinery under the same loss — with a short eviction
    // horizon so GC eviction paths actually fire within an iteration.
    factory = [inner = std::move(factory)](NodeId id, const std::vector<NodeId>& members) {
      auto layers = inner(id, members);
      ReliableConfig rcfg;
      rcfg.eviction_horizon = 5 * kSecond;
      layers.push_back(std::make_unique<ReliableLayer>(rcfg));
      return layers;
    };
  }
  // The monitors consume the telemetry stream of the same run the oracle
  // will judge from the buffered trace. Constructed before the Group so
  // they see every event from the first send on; destroyed (detached) when
  // this frame unwinds, after the simulation stops running.
  std::unique_ptr<MonitorSet> monitors;
  if (plan.attach_monitors) {
    MonitorOptions mopts;
    mopts.members = plan.members;
    monitors = std::make_unique<MonitorSet>(sim.telemetry(), mopts);
    monitors->attach_hybrid_suite();
  }
  Group group(sim, net, plan.members, factory);

  RunObservation obs;
  obs.epochs.resize(plan.members);
  for (std::size_t i = 0; i < plan.members; ++i) {
    switch_layer_of(group.stack(i))
        .set_epoch_tap([&obs, i](std::uint64_t epoch) { obs.epochs[i].push_back(epoch); });
  }

  FaultPlane plane(net, sim.fork_rng(), plan.schedule);
  plane.install();
  group.start();

  for (std::size_t k = 0; k < plan.sends.size(); ++k) {
    const auto [at, sender] = plan.sends[k];
    sim.scheduler().at(at, [&group, sender, k] {
      group.send(sender, to_bytes("m" + std::to_string(k)));
    });
  }
  for (const auto& [at, initiator] : plan.switches) {
    sim.scheduler().at(at,
                       [&group, i = initiator] { switch_layer_of(group.stack(i)).request_switch(); });
  }

  // Run to quiescence: past the activity window, then in chunks until the
  // group has converged and the trace has been stable for two consecutive
  // chunks (retransmission RTOs are 10-100 ms, so 1 s chunks are ample).
  sim.run_until(kFaultHorizon + 500 * kMillisecond);
  std::size_t stable_chunks = 0;
  std::size_t last_trace_size = group.trace().size();
  while (sim.now() < kMaxSimTime && stable_chunks < 2) {
    sim.run_for(1 * kSecond);
    bool converged = true;
    const std::uint64_t epoch0 = switch_layer_of(group.stack(0)).epoch();
    for (std::size_t i = 0; i < plan.members; ++i) {
      SwitchLayer& sl = switch_layer_of(group.stack(i));
      if (sl.epoch() != epoch0 || sl.switching() || sl.buffered() != 0) converged = false;
    }
    if (converged && group.trace().size() == last_trace_size) {
      ++stable_chunks;
    } else {
      stable_chunks = 0;
    }
    last_trace_size = group.trace().size();
  }

  obs.trace = group.trace();
  for (std::size_t i = 0; i < plan.members; ++i) {
    SwitchLayer& sl = switch_layer_of(group.stack(i));
    obs.final_epoch.push_back(sl.epoch());
    obs.switching.push_back(sl.switching());
    obs.buffered.push_back(sl.buffered());
  }
  obs.sent = group.total_sent();
  obs.delivered = group.total_delivered();
  for (std::size_t i = 0; i < plan.members; ++i) {
    obs.switches =
        std::max(obs.switches, switch_layer_of(group.stack(i)).stats().switches_completed);
  }
  if (monitors) {
    monitors->finalize(sim.now());
    obs.monitor_ok = monitors->ok();
    obs.monitor_reason = monitors->first_reason();
    obs.monitor_cells = monitors->state_cells();
  }

  const TelemetryHub& hub = sim.telemetry();
  if (plan.capture_telemetry) {
    std::ostringstream chrome, jsonl, metrics;
    write_chrome_trace(hub, chrome);
    write_events_jsonl(hub, jsonl);
    write_metrics_json(hub, metrics);
    obs.chrome_trace = chrome.str();
    obs.events_jsonl = jsonl.str();
    obs.metrics_json = metrics.str();
    obs.metrics_summary = metrics_summary_line(hub);
  }
  if (!plan.flight_reason.empty()) {
    std::ostringstream flight;
    write_flight_record(hub, flight, plan.flight_reason);
    obs.flight_record = flight.str();
  }
  return obs;
}

std::string check_oracle(const IterationPlan& plan, const RunObservation& obs) {
  const std::size_t n = plan.members;
  std::ostringstream why;

  // Sends and per-member delivery sequences from the trace.
  std::vector<MsgId> sent_ids;
  std::vector<std::vector<MsgId>> delivered(n);
  for (const auto& e : obs.trace) {
    if (e.process >= n) return "trace references an unknown process";
    if (e.is_send()) {
      sent_ids.push_back(e.msg);
    } else {
      delivered[e.process].push_back(e.msg);
    }
  }

  // No spurious deliveries; at-most-once per process.
  {
    std::set<MsgId> sent_set(sent_ids.begin(), sent_ids.end());
    for (std::size_t i = 0; i < n; ++i) {
      std::set<MsgId> seen;
      for (const MsgId& id : delivered[i]) {
        if (!sent_set.count(id)) {
          why << "spurious delivery of " << to_string(id) << " at member " << i;
          return why.str();
        }
        if (!seen.insert(id).second) {
          why << "duplicate delivery of " << to_string(id) << " at member " << i;
          return why.str();
        }
      }
    }
  }

  // SP old-before-new: per-member delivery epochs are non-decreasing, and
  // every message is delivered under one epoch globally.
  std::map<MsgId, std::uint64_t> epoch_of;
  for (std::size_t i = 0; i < n; ++i) {
    if (obs.epochs[i].size() != delivered[i].size()) {
      why << "epoch tap recorded " << obs.epochs[i].size() << " deliveries but the trace has "
          << delivered[i].size() << " at member " << i;
      return why.str();
    }
    for (std::size_t k = 0; k < delivered[i].size(); ++k) {
      const std::uint64_t e = obs.epochs[i][k];
      if (k > 0 && e < obs.epochs[i][k - 1]) {
        // A drop by more than half the u64 range is the counter wrapping
        // (max -> 0), which is monotone in epoch space; anything else is a
        // genuine old-message-after-new delivery.
        const bool wrapped = obs.epochs[i][k - 1] - e > (~std::uint64_t{0} >> 1);
        if (!wrapped) {
          why << "old-before-new violated at member " << i << ": epoch " << obs.epochs[i][k - 1]
              << " then " << e << " (delivery " << k << ")";
          return why.str();
        }
      }
      const auto [it, fresh] = epoch_of.emplace(delivered[i][k], e);
      if (!fresh && it->second != e) {
        why << "message " << to_string(delivered[i][k]) << " delivered in epoch " << it->second
            << " at one member but " << e << " at member " << i;
        return why.str();
      }
    }
  }

  // Convergence: one epoch everywhere, no switch in flight, buffers empty.
  for (std::size_t i = 0; i < n; ++i) {
    if (obs.final_epoch[i] != obs.final_epoch[0]) {
      why << "member " << i << " ended on epoch " << obs.final_epoch[i] << " but member 0 on "
          << obs.final_epoch[0];
      return why.str();
    }
    if (obs.switching[i]) {
      why << "member " << i << " still mid-switch at quiescence";
      return why.str();
    }
    if (obs.buffered[i] != 0) {
      why << "member " << i << " ended with " << obs.buffered[i] << " buffered deliveries";
      return why.str();
    }
  }

  // Agreement (both sub-protocols are total order): identical delivery
  // sequences everywhere, covering every send.
  for (std::size_t i = 0; i < n; ++i) {
    if (delivered[i] != delivered[0]) {
      why << "member " << i << " delivery sequence diverged from member 0";
      return why.str();
    }
  }
  if (delivered[0].size() != sent_ids.size()) {
    why << "reliability violated: " << sent_ids.size() << " sends but " << delivered[0].size()
        << " deliveries per member";
    return why.str();
  }

  // The Table 1 properties the hybrid stack claims.
  if (!TotalOrderProperty().holds(obs.trace)) return "Total Order property violated";
  if (!NoReplayProperty().holds(obs.trace)) return "No Replay property violated";
  {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < n; ++i) ids.push_back(i);
    if (!ReliabilityProperty(ids).holds(obs.trace)) return "Reliability property violated";
  }
  return {};
}

std::string make_repro(std::uint64_t seed, const FuzzConfig& cfg, const FaultSchedule& sched) {
  std::ostringstream os;
  os << "fuzz_switch --seed " << seed;
  if (cfg.enable_crash) os << " --crash";
  if (cfg.inject_flush_bug) os << " --inject-flush-bug";
  if (cfg.inject_selfnack_bug) os << " --inject-selfnack-bug";
  if (cfg.reliable_base) os << " --reliable-base";
  if (cfg.adaptive_oracle) os << " --adaptive-oracle";
  // Member bounds feed the seed-derived plan, so non-default values are
  // part of the reproducer.
  const FuzzConfig defaults;
  if (cfg.min_members != defaults.min_members) os << " --members-min " << cfg.min_members;
  if (cfg.max_members != defaults.max_members) os << " --members-max " << cfg.max_members;
  os << " --schedule '" << sched.to_string() << "'";
  return os.str();
}

/// Group schedule events into shrink atoms: an outage and its recovery form
/// one atom (removing half of the pair would make the reduced schedule fail
/// for the trivial reason that the network never heals).
std::vector<std::vector<std::size_t>> shrink_atoms(const FaultSchedule& s) {
  std::vector<std::vector<std::size_t>> atoms;
  std::vector<bool> used(s.events.size(), false);
  const auto recovery_of = [](FaultEvent::Kind k) {
    switch (k) {
      case FaultEvent::Kind::kLinkDown: return FaultEvent::Kind::kLinkUp;
      case FaultEvent::Kind::kPartition: return FaultEvent::Kind::kHeal;
      case FaultEvent::Kind::kCrash: return FaultEvent::Kind::kRestart;
      default: return k;
    }
  };
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (used[i]) continue;
    used[i] = true;
    std::vector<std::size_t> atom{i};
    const FaultEvent& e = s.events[i];
    const FaultEvent::Kind rec = recovery_of(e.kind);
    if (rec != e.kind) {
      for (std::size_t j = i + 1; j < s.events.size(); ++j) {
        if (used[j]) continue;
        const FaultEvent& f = s.events[j];
        if (f.kind == rec && f.a == e.a && f.b == e.b && f.mask == e.mask) {
          used[j] = true;
          atom.push_back(j);
          break;
        }
      }
    }
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

FaultSchedule without_atoms(const FaultSchedule& s,
                            const std::vector<std::vector<std::size_t>>& atoms,
                            const std::vector<bool>& keep) {
  FaultSchedule out = s;
  out.events.clear();
  std::vector<bool> keep_event(s.events.size(), false);
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    if (!keep[a]) continue;
    for (std::size_t idx : atoms[a]) keep_event[idx] = true;
  }
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (keep_event[i]) out.events.push_back(s.events[i]);
  }
  return out;
}

}  // namespace

FuzzIteration run_fuzz_iteration(std::uint64_t seed, const FuzzConfig& cfg,
                                 const FaultSchedule* schedule_override) {
  IterationPlan plan = make_plan(seed, cfg);
  if (schedule_override) plan.schedule = *schedule_override;

  FuzzIteration it;
  it.seed = seed;
  it.members = plan.members;
  it.schedule = plan.schedule;

  RunObservation obs = execute(seed, plan);
  it.digest = trace_digest(obs.trace);
  it.sent = obs.sent;
  it.delivered = obs.delivered;
  it.switches = obs.switches;
  it.reason = check_oracle(plan, obs);
  it.ok = it.reason.empty();
  it.monitor_ok = obs.monitor_ok;
  it.monitor_reason = std::move(obs.monitor_reason);
  it.monitor_cells = obs.monitor_cells;
  it.chrome_trace = std::move(obs.chrome_trace);
  it.events_jsonl = std::move(obs.events_jsonl);
  it.metrics_json = std::move(obs.metrics_json);
  it.metrics_summary = std::move(obs.metrics_summary);
  std::ostringstream st;
  for (std::size_t i = 0; i < plan.members; ++i) {
    st << "  member " << i << ": epoch=" << obs.final_epoch[i]
       << " switching=" << (obs.switching[i] ? 1 : 0) << " buffered=" << obs.buffered[i]
       << " delivered=" << obs.epochs[i].size() << "\n";
  }
  it.state = st.str();
  return it;
}

FuzzFailure shrink_failure(const FuzzIteration& failed, const FuzzConfig& cfg) {
  FuzzFailure out;
  out.seed = failed.seed;
  out.reason = failed.reason;
  out.schedule = failed.schedule;

  std::size_t budget = cfg.shrink_budget;
  const auto still_fails = [&](const FaultSchedule& candidate) {
    if (budget == 0) return false;
    --budget;
    return !run_fuzz_iteration(failed.seed, cfg, &candidate).ok;
  };

  // Zero the continuous knobs first — each is one unit of weight.
  for (const bool zero_dup : {true, false}) {
    FaultSchedule candidate = out.schedule;
    double& knob = zero_dup ? candidate.dup_prob : candidate.reorder_prob;
    if (knob == 0.0) continue;
    knob = 0.0;
    if (still_fails(candidate)) out.schedule = candidate;
  }

  // Delta-debug over atoms: drop aligned chunks at halving granularity,
  // restarting whenever a reduction sticks.
  bool reduced = true;
  while (reduced) {
    reduced = false;
    const auto atoms = shrink_atoms(out.schedule);
    if (atoms.empty()) break;
    for (std::size_t chunk = atoms.size(); chunk >= 1 && !reduced; chunk = chunk / 2) {
      for (std::size_t begin = 0; begin < atoms.size(); begin += chunk) {
        std::vector<bool> keep(atoms.size(), true);
        for (std::size_t a = begin; a < std::min(begin + chunk, atoms.size()); ++a) {
          keep[a] = false;
        }
        const FaultSchedule candidate = without_atoms(out.schedule, atoms, keep);
        if (still_fails(candidate)) {
          out.schedule = candidate;
          reduced = true;
          break;
        }
      }
      if (chunk == 1) break;
    }
  }

  out.weight = out.schedule.weight();
  out.repro = make_repro(failed.seed, cfg, out.schedule);

  // Flight recorder: one more run of the shrunk schedule with tracing
  // armed, so the last events per node land next to the repro line. The
  // extra run is outside the shrink budget — failures are rare and the
  // dump is the main post-mortem artifact.
  {
    IterationPlan plan = make_plan(failed.seed, cfg);
    plan.schedule = out.schedule;
    plan.flight_reason = out.reason.empty() ? "oracle failure" : out.reason;
    out.flight_record = execute(failed.seed, plan).flight_record;
  }
  return out;
}

FuzzSummary run_fuzz(std::uint64_t base_seed, std::size_t iters, const FuzzConfig& cfg,
                     const std::function<bool(const FuzzIteration&)>& on_iteration) {
  FuzzSummary summary;
  summary.corpus_digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < iters; ++i) {
    FuzzIteration it = run_fuzz_iteration(base_seed + i, cfg);
    summary.corpus_digest = mix64(summary.corpus_digest ^ it.digest);
    ++summary.iterations;
    if (!it.ok) summary.failures.push_back(shrink_failure(it, cfg));
    if (on_iteration && !on_iteration(it)) break;
  }
  return summary;
}

}  // namespace msw
