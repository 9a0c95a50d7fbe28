// sim-paper: the paper's section-7 experiment on the simulator.
//
// Ten members on the era-calibrated LAN (bench/calibration.hpp) run SP
// over {sequencer, token} with the default adaptive PolicyOracle. After an
// idle window, the number of active senders (Poisson, 50 msg/s each) steps
// across the 5-6 sender crossover and back, so the oracle's choices set
// the latency the run reports. Every simulated result is a pure function
// of the seed: the run replays the schedule until the time budget is spent
// and requires every replay to reproduce the first exactly.
#include <array>
#include <memory>
#include <optional>

#include "calibration.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using msw::Duration;
using msw::kSecond;
using msw::Time;

constexpr std::size_t kMembers = msw::bench::kGroupSize;
/// Active senders per step: up across the crossover, down, and up again.
constexpr std::array<std::size_t, 7> kSteps{1, 3, 8, 1, 4, 7, 2};
constexpr Duration kStep = 20 * kSecond;
constexpr Duration kIdle = 10 * kSecond;
constexpr Duration kDrain = 10 * kSecond;
constexpr double kRatePerSender = 50.0;
/// Set-ups timed per run: kSetupsPerReplay after each replay, so their
/// median spans the run, then more until there are kSetups.
constexpr std::size_t kSetups = 51;
constexpr std::size_t kSetupsPerReplay = 2;
constexpr Duration kFaultSwitchEvery = 500 * msw::kMillisecond;
/// Hold and span sampling: one multicast in kSampleEvery.
constexpr std::uint64_t kSampleEvery = 8;

/// The fault self-test's scenario. SP's injected drain fault only shows
/// around switches, so both of its arms request one every 500 ms; only the
/// second injects the fault. Both run the loopback-hybrid stack (library
/// default configs, ManualOracle): with the era protocol configs, forced
/// switches leave the sequencer on the 8-sender step, where it saturates;
/// its backlog then takes minutes of simulated time to clear, far past the
/// drain deadline, so the control would not be clean.
struct Faults {
  bool switching = false;   // default stack, a switch request every 500 ms
  bool skip_count = false;  // SwitchConfig::fault_skip_count_sender = 1
};

/// One simulated group with the benchmark's observers attached.
class Instance {
 public:
  Instance(std::uint64_t seed, bool traced, const Faults& faults)
      : sim_(mix(seed)),
        net_(sim_.scheduler(), sim_.fork_rng(), msw::bench::era_network()),
        checker_(kMembers, /*total_order=*/true),
        watch_(kMembers),
        layers_(kMembers) {
    if (traced) {
      rec_ = std::make_unique<Recorder>(
          kMembers, std::vector<LayerId>{LayerId::kSwitch, LayerId::kSequencer, LayerId::kToken},
          kSampleEvery);
    }
    group_ = std::make_unique<msw::Group>(sim_, net_, kMembers, factory(faults),
                                          /*capture_trace=*/false);
    for (std::size_t i = 0; i < kMembers; ++i) {
      layers_.sp[i] = &msw::switch_layer_of(group_->stack(i));
      layers_.sp[i]->set_epoch_tap([this, i](std::uint64_t epoch) {
        checker_.on_epoch(i, epoch);
        watch_.on_epoch(i, epoch, msw::to_ms(sim_.now()));
      });
      group_->stack(i).set_on_deliver(
          [this, i](const msw::MsgId& id, std::span<const msw::Byte> bytes) {
            on_deliver(i, id, bytes);
          });
    }
    group_->start();
  }

  /// Schedule one multicast from `member` at simulated time `due`.
  void schedule_send(std::size_t member, Time due) {
    const std::uint64_t id = next_id_++;
    sim_.scheduler().at(due, [this, member, id, due] { send(member, id, due); });
  }

  /// Warm-up: one multicast from every member (ids 0..n-1); run until
  /// every member has delivered all of them.
  bool warm_up() {
    for (std::size_t i = 0; i < kMembers; ++i) schedule_send(i, sim_.now());
    const Time limit = sim_.now() + kSecond;
    while (checker_.completed() < kMembers && sim_.now() < limit) {
      sim_.run_for(msw::kMillisecond);
    }
    return checker_.completed() >= kMembers;
  }

  /// Fault self-test: a switch request every kFaultSwitchEvery from a
  /// rotating initiator, so the injected drain fault gets many chances.
  void request_switches(Time from, Time to) {
    std::size_t initiator = 0;
    for (Time t = from + kFaultSwitchEvery; t < to; t += kFaultSwitchEvery) {
      msw::SwitchLayer* sw = layers_.sp[initiator++ % kMembers];
      sim_.scheduler().at(t, [sw] { sw->request_switch(); });
    }
  }

  msw::Simulation& sim() { return sim_; }
  msw::Network& net() { return net_; }
  Checker& checker() { return checker_; }
  SwitchWatch& watch() { return watch_; }
  Recorder* recorder() { return rec_.get(); }
  std::uint64_t attempted() const { return next_id_; }
  std::vector<std::uint32_t>& latencies_us() { return lat_us_; }

  std::uint64_t token_hops() const {
    std::uint64_t n = 0;
    for (const msw::SwitchLayer* s : layers_.sp) n += s->stats().token_hops;
    return n;
  }

  /// Counters of the traced run's per-layer bill.
  void fill_counters(LayerInputs& in) const {
    add_counters(in, layers_);
    in.oracle = oracle_;
  }

 private:
  msw::LayerFactory factory(const Faults& faults) {
    msw::HybridConfig cfg;
    if (!faults.switching) {
      cfg.sequencer = msw::bench::sequencer_config();
      cfg.token = msw::bench::token_config();
      cfg.sp = msw::bench::switch_config();
      cfg.oracle = msw::make_policy_oracle_factory();
    }
    if (faults.skip_count) cfg.sp.fault_skip_count_sender = 1;
    if (!rec_) return msw::make_hybrid_total_order_factory(cfg);
    return traced_hybrid_factory(*rec_, layers_, cfg, oracle_,
                                 [this] { watch_.started(msw::to_ms(sim_.now())); });
  }

  void send(std::size_t member, std::uint64_t id, Time due) {
    msw::Bytes body = Body{id, due}.encode();
    if (!rec_) {
      group_->send(member, std::move(body));
      return;
    }
    const auto node = static_cast<std::uint32_t>(member);
    rec_->root_send(node, LayerId::kSwitch, id, sim_.now());
    const std::int64_t t0 = wall_ns();
    {
      Recorder::Span s(*rec_, LayerId::kSwitch, Dir::kDown, id);
      group_->send(member, std::move(body));
    }
    rec_->add_stack_send(wall_ns() - t0);
  }

  void on_deliver(std::size_t member, const msw::MsgId& id, std::span<const msw::Byte> bytes) {
    std::optional<Recorder::Span> span;
    if (rec_) span.emplace(*rec_, LayerId::kApp, Dir::kUp);
    Body body;
    if (!Body::decode(bytes, body)) {
      checker_.on_deliver(member, id, ~0ULL);  // counted as a failure
      return;
    }
    if (rec_) rec_->app_deliver(static_cast<std::uint32_t>(member), LayerId::kSwitch, body.id, sim_.now());
    if (body.id >= kMembers) lat_us_.push_back(static_cast<std::uint32_t>(sim_.now() - body.due));
    checker_.on_deliver(member, id, body.id);
  }

  msw::Simulation sim_;
  msw::Network net_;
  std::unique_ptr<Recorder> rec_;
  TimedOracle::Counts oracle_;
  Checker checker_;
  SwitchWatch watch_;
  TracedLayers layers_;
  std::unique_ptr<msw::Group> group_;
  std::vector<std::uint32_t> lat_us_;
  std::uint64_t next_id_ = 0;
};

/// The send schedule of one replay, as (member, due) pairs from `start`.
std::vector<std::pair<std::size_t, Time>> schedule(std::uint64_t seed, Time start) {
  msw::Rng rng(mix(seed ^ 0x5ced));
  std::vector<std::pair<std::size_t, Time>> out;
  const double mean_gap = 1e6 / kRatePerSender;
  Time step_start = start;
  for (const std::size_t active : kSteps) {
    const Time step_end = step_start + kStep;
    for (std::size_t s = 0; s < active; ++s) {
      Time t = step_start + static_cast<Duration>(rng.exponential(mean_gap));
      while (t < step_end) {
        out.emplace_back(s, t);
        t += std::max<Duration>(1, static_cast<Duration>(rng.exponential(mean_gap)));
      }
    }
    step_start = step_end;
  }
  return out;
}

struct Replay {
  double idle_cpu_cores = 0;  // CPU-s per simulated idle second
  double cpu_us_per_msg = 0;
  double msgs_per_s = 0;
  double lat_p50_ms = 0;
  double lat_p99_ms = 0;
  std::uint64_t samples = 0;
  std::uint64_t order_hash = 0;
  std::uint64_t switches = 0;
  Checker::Verdict verdict;
  bool warm = true;
};

/// One replay of the whole schedule. `layers` (traced runs, first replay
/// only) receives the per-layer bill of the load phase.
Replay replay(const Options& o, const Faults& faults, LayerInputs* layers) {
  Replay r;
  Instance inst(o.seed, o.trace, faults);
  r.warm = inst.warm_up();
  msw::Simulation& sim = inst.sim();

  const std::uint64_t hops0 = inst.token_hops();
  std::int64_t c0 = thread_cpu_ns();
  sim.run_for(kIdle);
  r.idle_cpu_cores = static_cast<double>(thread_cpu_ns() - c0) / 1e9 / msw::to_sec(kIdle);
  const std::uint64_t hops1 = inst.token_hops();

  const Time start = sim.now();
  const auto sends = schedule(o.seed, start);
  for (const auto& [member, due] : sends) inst.schedule_send(member, due);
  const Time end_sends = start + static_cast<Duration>(kSteps.size()) * kStep;
  if (faults.switching) inst.request_switches(start, end_sends);

  Recorder::Bill bill0;
  if (Recorder* rec = inst.recorder()) bill0 = rec->bill();
  const std::uint64_t events0 = sim.scheduler().executed();
  const msw::NetStats net0 = inst.net().stats();
  const std::uint64_t done0 = inst.checker().completed();

  c0 = thread_cpu_ns();
  const std::int64_t w0 = wall_ns();
  sim.run_until(end_sends);
  // Drain with a deadline: a stall becomes undelivered multicasts.
  const Time deadline = end_sends + kDrain;
  while (inst.checker().completed() < inst.attempted() && sim.now() < deadline) {
    sim.run_for(100 * msw::kMillisecond);
  }
  const double cpu_s = static_cast<double>(thread_cpu_ns() - c0) / 1e9;
  const double wall_s = static_cast<double>(wall_ns() - w0) / 1e9;
  const std::uint64_t done = inst.checker().completed() - done0;

  r.cpu_us_per_msg = done > 0 ? cpu_s * 1e6 / static_cast<double>(done) : 0;
  r.msgs_per_s = wall_s > 0 ? static_cast<double>(done) / wall_s : 0;
  auto& lat = inst.latencies_us();
  r.samples = lat.size();
  r.lat_p50_ms = quantile(lat, 0.50) / 1000.0;
  r.lat_p99_ms = quantile(lat, 0.99) / 1000.0;
  r.verdict = inst.checker().finish(inst.attempted());
  r.order_hash = inst.checker().order_hash();
  r.switches = inst.watch().installed();

  if (layers != nullptr && inst.recorder() != nullptr) {
    Recorder& rec = *inst.recorder();
    LayerInputs& in = *layers;
    in.multicasts = done;
    in.bill = Recorder::diff(bill0, rec.bill());
    for (std::size_t l = 0; l < kLayerCount; ++l) in.holds[l] = rec.holds(static_cast<LayerId>(l));
    in.idle_token_hops_per_s = static_cast<double>(hops1 - hops0) / msw::to_sec(kIdle);
    const double load_s = msw::to_sec(sim.now() - start);
    in.token_hops_per_s = static_cast<double>(inst.token_hops() - hops1) / load_s;
    in.switch_install_ms = inst.watch().samples();
    inst.fill_counters(in);
    in.sim_events = sim.scheduler().executed() - events0;
    const msw::NetStats& net1 = inst.net().stats();
    in.net_packets = (net1.unicasts_sent + net1.multicasts_sent) -
                     (net0.unicasts_sent + net0.multicasts_sent);
    in.net_bytes = net1.bytes_on_wire - net0.bytes_on_wire;
    if (!o.out_dir.empty()) {
      rec.write_spans(o.out_dir + "/spans-sim-paper-" + std::to_string(o.seed) + ".jsonl");
    }
  }
  return r;
}

/// CPU time of one throwaway set-up: build the group, start it, deliver
/// one multicast from every member everywhere. False in `warm` if the
/// warm-up did not complete.
double setup_once(const Options& o, bool& warm) {
  const std::int64_t c0 = thread_cpu_ns();
  Instance inst(o.seed, /*traced=*/false, Faults{});
  warm = inst.warm_up() && warm;
  return static_cast<double>(thread_cpu_ns() - c0) / 1e9;
}

/// The checker's self-test against SP's injected drain fault: the switching
/// scenario once without the fault (the control, which must be clean) and
/// once with it (which must fail old-before-new). The result is the faulty
/// arm's; the control's verdict is a report line.
RunResult run_sim_fault(const Options& o) {
  RunResult res;
  const Replay control = replay(o, Faults{true, false}, nullptr);
  const Replay faulty = replay(o, Faults{true, true}, nullptr);
  res.notes.push_back("control check: " + control.verdict.summary());
  res.notes.push_back("check: " + faulty.verdict.summary());
  res.attempted = faulty.verdict.attempted;
  res.failed = faulty.verdict.failed;
  res.correct = faulty.verdict.ok() && faulty.warm;
  res.e2e = {
      {"setup_s", 0, "s"},
      {"lat_p50_ms", faulty.lat_p50_ms, "ms"},
      {"cpu_us_per_msg", faulty.cpu_us_per_msg, "us"},
      {"msgs_per_s", faulty.msgs_per_s, "1/s"},
      {"idle_cpu_cores", faulty.idle_cpu_cores, "cores"},
  };
  return res;
}

}  // namespace

RunResult run_sim_paper(const Options& o) {
  if (o.inject_sp_fault) return run_sim_fault(o);
  RunResult res;
  std::vector<Replay> replays;
  LayerInputs layers;
  const std::int64_t begin = wall_ns();
  const auto budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<double> setups;
  bool warm = true;
  do {
    replays.push_back(replay(o, Faults{}, replays.empty() && o.trace ? &layers : nullptr));
    for (std::size_t k = 0; k < kSetupsPerReplay; ++k) setups.push_back(setup_once(o, warm));
  } while (wall_ns() - begin < budget_ns);
  while (setups.size() < kSetups) setups.push_back(setup_once(o, warm));

  std::vector<double> idle, cpu, rate;
  for (const Replay& r : replays) {
    idle.push_back(r.idle_cpu_cores);
    cpu.push_back(r.cpu_us_per_msg);
    rate.push_back(r.msgs_per_s);
  }

  const Replay& first = replays.front();
  res.attempted = first.verdict.attempted;
  res.failed = first.verdict.failed;
  res.correct = first.verdict.ok() && first.warm && warm;
  std::size_t divergent = 0;
  for (const Replay& r : replays) {
    if (r.order_hash != first.order_hash || r.lat_p50_ms != first.lat_p50_ms ||
        r.lat_p99_ms != first.lat_p99_ms || r.verdict.failed != first.verdict.failed) {
      ++divergent;
    }
  }
  if (divergent > 0) res.correct = false;

  char line[512];
  std::snprintf(line, sizeof line,
                "sim: lat_p50_ms=%.6f lat_p99_ms=%.6f samples=%llu switches=%llu "
                "order_hash=%016llx replays=%zu divergent_replays=%zu",
                first.lat_p50_ms, first.lat_p99_ms,
                static_cast<unsigned long long>(first.samples),
                static_cast<unsigned long long>(first.switches),
                static_cast<unsigned long long>(first.order_hash), replays.size(), divergent);
  res.notes.push_back(line);
  res.notes.push_back("check: " + first.verdict.summary());

  res.e2e = {
      {"setup_s", median(setups), "s"},
      {"lat_p50_ms", first.lat_p50_ms, "ms"},
      {"cpu_us_per_msg", worse_decile(cpu, false), "us"},
      {"msgs_per_s", worse_decile(rate, true), "1/s"},
      {"idle_cpu_cores", worse_decile(idle, false), "cores"},
  };
  if (o.trace) res.layers = layer_metrics(layers);
  return res;
}

}  // namespace pb
