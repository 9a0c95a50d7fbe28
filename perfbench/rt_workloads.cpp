// The runtime workloads: one group pinned to one executor shard, driven by
// this process's main thread as the load generator.
//
// loopback-hybrid: SP over {sequencer, token} with library-default configs
//   and ManualOracle, ten members on LoopbackTransport. An idle window,
//   then an open loop of Poisson multicasts from random members at a fixed
//   rate, with a switch requested every 250 ms at a rotating initiator.
//   Latency runs from each multicast's due time, so a stall also delays the
//   multicasts queued behind it.
// udp-fifo: FifoLayer over ReliableLayer, 32 members on UdpTransport (the
//   host's loopback interface). An idle window, then a closed loop that
//   sends round-robin across members while at most kWindow multicasts are
//   not yet delivered everywhere.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "probes.hpp"
#include "report.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/rt_group.hpp"
#include "rt/udp_transport.hpp"
#include "switch/hybrid.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kIdleNs = 3000 * kMs;
constexpr std::size_t kIdleWindows = 30;
/// Length of one load window (s); see worse_decile() for how windows combine.
constexpr double kWindowS = 1.0;
constexpr std::int64_t kDrainNs = 5000 * kMs;
constexpr std::int64_t kSetupDeadlineNs = 5000 * kMs;
// Set-ups timed before the load and again after it, so the median spans
// the run rather than one moment of the host.
constexpr std::size_t kSetupsPerSide = 31;
constexpr std::uint64_t kSampleEvery = 16;

// loopback-hybrid: about a third of the rate at which this group stops
// keeping up on a 4-vCPU host (near 30k/s the sequencer's 20 ms request
// timeout starts firing, retransmissions add load and the backlog runs
// away; 20k/s tips over on a host hiccup).
constexpr double kHybridRate = 10'000;
constexpr std::int64_t kSwitchEveryNs = 250 * kMs;
// udp-fifo: multicasts in flight; keeps every socket's queue far below
// its receive buffer.
constexpr std::uint64_t kWindow = 64;
// Latency samples reserved per load window, so the shard seldom copies a
// large vector mid-window (the closed loop reserves the cap).
constexpr std::size_t kMaxReservePerWindow = 1 << 18;

enum class StackKind { kHybrid, kReliableFifo };

struct Spec {
  const char* name;
  StackKind stack;
  std::size_t members;
  bool udp;
};

constexpr Spec kLoopbackHybrid{"loopback-hybrid", StackKind::kHybrid, 10, false};
constexpr Spec kUdpFifo{"udp-fifo", StackKind::kReliableFifo, 32, true};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// A group on its own executor shard, with the benchmark's observers.
/// After start(), the stacks are touched only from tasks posted to the
/// shard; the generator thread posts sends and reads checker().completed().
class Instance {
 public:
  Instance(const Spec& spec, const Options& o)
      : spec_(spec),
        top_(spec.stack == StackKind::kHybrid ? LayerId::kSwitch : LayerId::kFifo),
        checker_(spec.members, spec.stack == StackKind::kHybrid),
        watch_(spec.members),
        layers_(spec.members) {
    if (spec.udp) {
      transport_ = std::make_unique<msw::UdpTransport>(ex_);
    } else {
      transport_ = std::make_unique<msw::LoopbackTransport>(ex_);
    }
    if (o.trace) {
      std::vector<LayerId> held = spec.stack == StackKind::kHybrid
                                      ? std::vector<LayerId>{LayerId::kSwitch, LayerId::kSequencer,
                                                             LayerId::kToken}
                                      : std::vector<LayerId>{LayerId::kFifo, LayerId::kReliable};
      rec_ = std::make_unique<Recorder>(spec.members, std::move(held), kSampleEvery);
    }
    group_ = std::make_unique<msw::RtGroup>(*transport_, spec.members, factory(), 0,
                                            /*capture_trace=*/false, /*hub=*/nullptr, mix(o.seed));
    for (std::size_t i = 0; i < spec.members; ++i) {
      msw::Stack& st = group_->stack(i);
      st.set_on_deliver([this, i](const msw::MsgId& id, std::span<const msw::Byte> bytes) {
        on_deliver(i, id, bytes);
      });
      if (spec.stack == StackKind::kHybrid) {
        layers_.sp[i] = &msw::switch_layer_of(st);
        layers_.sp[i]->set_epoch_tap([this, i](std::uint64_t epoch) {
          checker_.on_epoch(i, epoch);
          watch_.on_epoch(i, epoch, static_cast<double>(wall_ns()) / 1e6);
        });
      }
    }
  }

  ~Instance() { ex_.stop(); }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Start the executor and, in one shard task, start every stack and
  /// send one multicast from every member (ids 0..n-1).
  void start() {
    ex_.start();
    group_->post([this, posted = wall_ns()] {
      for (std::size_t i = 0; i < spec_.members; ++i) group_->stack(i).start();
      for (std::size_t i = 0; i < spec_.members; ++i) send_now(i, i, Body{i, posted}.encode(), posted);
    });
  }
  void stop() { ex_.stop(); }

  /// Wait until every member has delivered every warm-up multicast. Returns
  /// the shard thread's CPU time (ns, counted from its birth) at the moment
  /// the last one was delivered, or -1 past the deadline. Polls with short
  /// sleeps: a spinning poller slowed the shard's warm-up by up to 2x,
  /// differently in every process.
  std::int64_t wait_warm() {
    const std::int64_t deadline = wall_ns() + kSetupDeadlineNs;
    while (!warm_done_.load(std::memory_order_acquire)) {
      if (wall_ns() >= deadline) return -1;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return warm_cpu_ns_;
  }

  /// Post multicast `id` from `member`, due at `due_ns` (wall clock).
  void post_send(std::size_t member, std::uint64_t id, std::int64_t due_ns) {
    group_->post([this, member, id, body = Body{id, due_ns}.encode(), posted = wall_ns()]() mutable {
      send_now(member, id, std::move(body), posted);
    });
  }

  void post_switch(std::size_t member) {
    group_->post([this, member] {
      watch_.started(static_cast<double>(wall_ns()) / 1e6);
      msw::switch_layer_of(group_->stack(member)).request_switch();
    });
  }

  /// Shard-side counters, read on the shard thread.
  struct ShardView {
    std::uint64_t tasks = 0, wakeups = 0, token_hops = 0;
    std::int64_t shard_cpu_ns = 0;
    Recorder::Bill bill;
  };
  ShardView shard_view() {
    ShardView v;
    group_->call([this, &v] {
      msw::EventLoop& loop = ex_.loop(0);
      v.tasks = loop.tasks_run();
      v.wakeups = loop.wakeups();
      v.shard_cpu_ns = thread_cpu_ns();
      v.token_hops = token_hops();
      if (rec_) v.bill = rec_->bill();
    });
    return v;
  }

  Checker& checker() { return checker_; }
  SwitchWatch& watch() { return watch_; }
  Recorder* recorder() { return rec_.get(); }
  msw::ThreadedTransport& transport() { return *transport_; }
  /// Split the load phase starting at `start` into `n` windows of `len`
  /// ns. Call before posting the first load send.
  void windows(std::int64_t start, std::int64_t len, std::size_t n, std::size_t per_window) {
    load_start_ = start;
    window_ns_ = len;
    lat_.assign(n, {});
    for (auto& w : lat_) w.reserve(per_window);
  }
  std::vector<std::vector<std::uint32_t>>& latencies_ns() { return lat_; }
  std::vector<double>& inbox_wait_us() { return inbox_wait_us_; }

  /// Protocol counters; executor stopped.
  void fill_counters(LayerInputs& in) const {
    add_counters(in, layers_);
    in.oracle = oracle_;
  }

 private:
  std::uint64_t token_hops() const {
    std::uint64_t n = 0;
    for (const msw::SwitchLayer* s : layers_.sp) {
      if (s != nullptr) n += s->stats().token_hops;
    }
    return n;
  }

  msw::LayerFactory factory() {
    if (spec_.stack == StackKind::kReliableFifo) {
      return rec_ ? traced_fifo_factory(*rec_, layers_) : msw::make_reliable_fifo_factory();
    }
    return rec_ ? traced_hybrid_factory(*rec_, layers_, msw::HybridConfig{}, oracle_)
                : msw::make_hybrid_total_order_factory();
  }

  /// On the shard: multicast `body` (multicast `id`) from `member`;
  /// `posted` is when the task was posted (the traced run's inbox wait).
  void send_now(std::size_t member, std::uint64_t id, msw::Bytes body, std::int64_t posted) {
    msw::Stack& st = group_->stack(member);
    if (!rec_) {
      st.send(std::move(body));
      return;
    }
    const std::int64_t t0 = wall_ns();
    inbox_wait_us_.push_back(static_cast<double>(t0 - posted) / 1000.0);
    rec_->root_send(static_cast<std::uint32_t>(member), top_, id, transport_->now());
    {
      Recorder::Span s(*rec_, top_, Dir::kDown, id);
      st.send(std::move(body));
    }
    rec_->add_stack_send(wall_ns() - t0);
  }

  void on_deliver(std::size_t member, const msw::MsgId& id, std::span<const msw::Byte> bytes) {
    std::optional<Recorder::Span> span;
    if (rec_) span.emplace(*rec_, LayerId::kApp, Dir::kUp);
    const std::int64_t now = wall_ns();
    Body body;
    if (!Body::decode(bytes, body)) {
      checker_.on_deliver(member, id, ~0ULL);  // counted as a failure
      return;
    }
    if (rec_) rec_->app_deliver(static_cast<std::uint32_t>(member), top_, body.id, transport_->now());
    if (body.id >= spec_.members) {
      const auto w = std::clamp<std::int64_t>((body.due - load_start_) / window_ns_, 0,
                                              static_cast<std::int64_t>(lat_.size()) - 1);
      lat_[static_cast<std::size_t>(w)].push_back(
          static_cast<std::uint32_t>(std::clamp<std::int64_t>(now - body.due, 0, 0xffffffffLL)));
    }
    if (checker_.on_deliver(member, id, body.id) && checker_.completed() == spec_.members) {
      // A young thread's CPU clock can still read 0 here (seen on a VM),
      // so completion has its own flag.
      warm_cpu_ns_ = thread_cpu_ns();
      warm_done_.store(true, std::memory_order_release);
    }
  }

  const Spec& spec_;
  LayerId top_;
  // Declaration order is teardown order in reverse: the executor outlives
  // the transport, which outlives the group.
  msw::Executor ex_{1};
  std::unique_ptr<msw::ThreadedTransport> transport_;
  std::unique_ptr<Recorder> rec_;
  TimedOracle::Counts oracle_;
  Checker checker_;
  SwitchWatch watch_;
  TracedLayers layers_;
  // Load windows: latencies (ns) of the multicasts due in each window.
  // Written by the shard thread; windows() runs before the first load send.
  std::int64_t load_start_ = 0;
  std::int64_t window_ns_ = 1;
  std::vector<std::vector<std::uint32_t>> lat_;
  std::vector<double> inbox_wait_us_;  // shard thread
  std::int64_t warm_cpu_ns_ = 0;  // written by the shard before warm_done_
  alignas(64) std::atomic<bool> warm_done_{false};
  std::unique_ptr<msw::RtGroup> group_;
};

/// Build, start and warm one instance; returns its set-up time in seconds
/// of CPU: this thread's until the start is posted, plus the shard's until
/// the warm-up is delivered everywhere. Waiting (thread start, wake-ups,
/// this thread's polling) is not counted, as it measures the host's
/// scheduler rather than the program. Clears `warm` if the warm-up stalls.
double set_up(std::unique_ptr<Instance>& inst, const Spec& spec, const Options& o, bool& warm) {
  const std::int64_t c0 = thread_cpu_ns();
  inst = std::make_unique<Instance>(spec, o);
  inst->start();
  const std::int64_t own = thread_cpu_ns() - c0;
  const std::int64_t shard = inst->wait_warm();
  warm = warm && shard >= 0;
  return static_cast<double>(own + std::max<std::int64_t>(shard, 0)) / 1e9;
}

RunResult run(const Spec& spec, const Options& o) {
  RunResult res;
  const bool open_loop = spec.stack == StackKind::kHybrid;
  // Set-up: time several, keep the last as the measured instance.
  std::unique_ptr<Instance> inst;
  std::vector<double> setups;
  bool warm = true;
  try {
    for (std::size_t k = 0; k < kSetupsPerSide; ++k) {
      inst.reset();
      setups.push_back(set_up(inst, spec, o, warm));
    }
  } catch (const std::exception& e) {
    // The medium is fixed per workload: no fallback to another transport.
    res.notes.push_back(std::string("set-up failed: ") + e.what());
    res.attempted = 1;
    res.failed = 1;
    res.correct = false;
    res.e2e = {{"setup_s", 0, "s"},          {"lat_p50_ms", 0, "ms"}, {"cpu_us_per_msg", 0, "us"},
               {"msgs_per_s", 0, "1/s"},     {"idle_cpu_cores", 0, "cores"}};
    LayerInputs none;
    res.layers = layer_metrics(none);
    return res;
  }

  // Idle window: the group is up, nobody sends. Cut into sub-windows so one
  // host hiccup moves one sample, not the result.
  const Instance::ShardView idle0 = inst->shard_view();
  std::vector<double> idle_cores;
  const std::int64_t idle_start = wall_ns();
  for (std::size_t k = 0; k < kIdleWindows; ++k) {
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = wall_ns();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleNs / kIdleWindows));
    idle_cores.push_back(static_cast<double>(process_cpu_ns() - c0) /
                         static_cast<double>(wall_ns() - t0));
  }
  const double idle_wall_s = static_cast<double>(wall_ns() - idle_start) / 1e9;
  const Instance::ShardView idle1 = inst->shard_view();

  // Load, measured per window: at each window boundary the generator notes
  // the clock, the CPU of every thread but its own, and completions.
  const auto windows = std::max<std::size_t>(1, static_cast<std::size_t>(o.seconds / kWindowS));
  const auto window_ns = static_cast<std::int64_t>(o.seconds * 1e9) / static_cast<std::int64_t>(windows);
  struct Mark {
    std::int64_t wall, cpu;
    std::uint64_t completed;
  };
  std::vector<Mark> marks;
  const std::int64_t gen_cpu0 = thread_cpu_ns();
  const auto mark = [&] {
    marks.push_back(Mark{wall_ns(), process_cpu_ns() - (thread_cpu_ns() - gen_cpu0),
                         inst->checker().completed()});
  };
  msw::Rng rng(mix(o.seed ^ 0x10ad));
  const std::uint64_t sent0 = inst->transport().packets_sent();
  const std::uint64_t drop0 = inst->transport().packets_dropped();
  std::vector<std::int64_t> lateness;
  std::uint64_t next_id = spec.members;  // below: the warm-up
  const std::int64_t start = wall_ns() + kMs;
  const std::int64_t end = start + window_ns * static_cast<std::int64_t>(windows);
  const auto offered = static_cast<std::size_t>(kHybridRate * o.seconds * 1.1);
  inst->windows(start, window_ns, windows,
                open_loop ? std::min(offered * spec.members / windows + 1024, kMaxReservePerWindow)
                          : kMaxReservePerWindow);
  std::int64_t next_mark = start;
  if (open_loop) {
    lateness.reserve(offered);
    const double gap_ns = 1e9 / kHybridRate;
    double due = static_cast<double>(start);
    std::int64_t next_switch = start + kSwitchEveryNs;
    std::size_t initiator = 0;
    for (;;) {
      due += rng.exponential(gap_ns);
      const auto due_ns = static_cast<std::int64_t>(due);
      if (due_ns >= end) break;
      std::int64_t now = wall_ns();
      while (now < due_ns) {
        cpu_relax();
        now = wall_ns();
      }
      if (now >= next_mark) {
        mark();
        next_mark += window_ns;
      }
      lateness.push_back(now - due_ns);
      while (next_switch <= due_ns) {
        inst->post_switch(initiator++ % spec.members);
        next_switch += kSwitchEveryNs;
      }
      inst->post_send(rng.below(spec.members), next_id++, due_ns);
    }
  } else {
    while (wall_ns() < start) cpu_relax();
    std::size_t member = 0;
    for (std::int64_t now = wall_ns(); now < end; now = wall_ns()) {
      if (now >= next_mark) {
        mark();
        next_mark += window_ns;
      }
      if (next_id - inst->checker().completed() >= kWindow) {
        cpu_relax();
        continue;
      }
      inst->post_send(member, next_id++, now);
      member = (member + 1) % spec.members;
    }
  }
  // Drain with a deadline: a stall becomes undelivered multicasts.
  const std::int64_t gen_stop = wall_ns();
  while (inst->checker().completed() < next_id && wall_ns() < gen_stop + kDrainNs) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  mark();
  const Instance::ShardView load1 = inst->shard_view();
  inst->stop();

  const std::uint64_t multicasts = next_id - spec.members;
  const Checker::Verdict verdict = inst->checker().finish(next_id);
  res.attempted = next_id;
  res.failed = verdict.failed;
  res.correct = verdict.ok() && warm;

  std::vector<double> cpu_w, rate_w, p50_w;
  for (std::size_t k = 1; k < marks.size(); ++k) {
    const double done = static_cast<double>(marks[k].completed - marks[k - 1].completed);
    if (done <= 0) continue;
    cpu_w.push_back(static_cast<double>(marks[k].cpu - marks[k - 1].cpu) / 1e3 / done);
    rate_w.push_back(done * 1e9 / static_cast<double>(marks[k].wall - marks[k - 1].wall));
  }
  std::vector<std::uint32_t> all;
  for (auto& w : inst->latencies_ns()) {
    if (w.empty()) continue;
    p50_w.push_back(quantile(w, 0.50) / 1e6);
    all.insert(all.end(), w.begin(), w.end());
  }
  const double load_wall_s = static_cast<double>(marks.back().wall - marks.front().wall) / 1e9;
  std::vector<double> install_ms = inst->watch().samples();
  char line[512];
  std::snprintf(line, sizeof line,
                "%s: multicasts=%llu samples=%zu lat_ms p50=%.4f p99=%.4f p99.9=%.4f "
                "switches=%llu switch_install_ms_p50=%.3f",
                spec.name, static_cast<unsigned long long>(multicasts), all.size(),
                quantile(all, 0.50) / 1e6, quantile(all, 0.99) / 1e6, quantile(all, 0.999) / 1e6,
                static_cast<unsigned long long>(inst->watch().installed()),
                quantile(install_ms, 0.5));
  res.notes.push_back(line);
  if (open_loop) {
    std::snprintf(line, sizeof line, "generator lateness_us p50=%.2f p99=%.2f samples=%zu",
                  quantile(lateness, 0.50) / 1e3, quantile(lateness, 0.99) / 1e3, lateness.size());
    res.notes.push_back(line);
  }
  res.notes.push_back("check: " + verdict.summary());
  if (o.trace) {
    LayerInputs in;
    in.multicasts = multicasts;
    in.bill = Recorder::diff(idle1.bill, load1.bill);
    Recorder& rec = *inst->recorder();
    for (std::size_t l = 0; l < kLayerCount; ++l) in.holds[l] = rec.holds(static_cast<LayerId>(l));
    in.transit_us = rec.transit_us();
    in.inbox_wait_us = inst->inbox_wait_us();
    in.idle_token_hops_per_s = static_cast<double>(idle1.token_hops - idle0.token_hops) / idle_wall_s;
    in.token_hops_per_s = static_cast<double>(load1.token_hops - idle1.token_hops) / load_wall_s;
    in.switch_install_ms = inst->watch().samples();
    inst->fill_counters(in);
    in.rt_packets = inst->transport().packets_sent() - sent0;
    in.rt_drops = inst->transport().packets_dropped() - drop0;
    in.rt_tasks = load1.tasks - idle1.tasks;
    in.rt_wakeups_per_s = static_cast<double>(load1.wakeups - idle1.wakeups) / load_wall_s;
    in.rt_shard_busy = static_cast<double>(load1.shard_cpu_ns - idle1.shard_cpu_ns) / 1e9 / load_wall_s;
    res.layers = layer_metrics(in);
    if (!o.out_dir.empty()) {
      rec.write_spans(o.out_dir + "/spans-" + spec.name + "-" + std::to_string(o.seed) + ".jsonl");
    }
  }
  inst.reset();
  for (std::size_t k = 0; k < kSetupsPerSide; ++k) {
    inst.reset();
    setups.push_back(set_up(inst, spec, o, warm));
  }
  res.correct = res.correct && warm;
  res.e2e = {
      {"setup_s", median(setups), "s"},
      // Open loop: a host stall backs the queue up and multiplies a
      // window's latency, so three stalled windows would decide the decile;
      // the worse quartile needs eight. In the closed loop a stall lowers
      // throughput instead, and the decile repeats better.
      {"lat_p50_ms", open_loop ? quantile(p50_w, 0.75) : worse_decile(p50_w, false), "ms"},
      {"cpu_us_per_msg", worse_decile(cpu_w, false), "us"},
      {"msgs_per_s", worse_decile(rate_w, true), "1/s"},
      {"idle_cpu_cores", worse_decile(idle_cores, false), "cores"},
  };
  return res;
}

}  // namespace

RunResult run_loopback_hybrid(const Options& o) { return run(kLoopbackHybrid, o); }
RunResult run_udp_fifo(const Options& o) { return run(kUdpFifo, o); }

}  // namespace pb
