// Tracing shims for the traced run. Everything here times the library from
// outside: pass-through probe layers between adjacent layers, a decorator
// around the oracle, and spans the workloads open around their own send
// task and delivery callback. Nothing inside src/ is instrumented.
//
// Self time. Every probe crossing opens a span attributed to the layer the
// call enters (a downward call enters the layer below the probe, an upward
// call the layer above). A span's self time is its duration minus the
// spans nested inside it, so each layer is billed only for its own code.
// The workload's send task is the root span of the down path and is billed
// to the top layer (it includes the Stack's own application-header push);
// the delivery callback is a span of its own ("app") so the benchmark's
// bookkeeping is never billed to a layer. Timer-driven layer work that
// crosses no probe (retransmission timers, heartbeats) is not billed.
//
// Hold time. For sampled benchmark messages the recorder notes, at each
// node, when the message enters and leaves each layer. A (message, member)
// hold sample for layer L is the time the message spent inside L on its
// way to that member: every stay that ended downward (the sender's token
// wait, the sequencer's ordering of the request) plus the stays at that
// member that ended upward (sequencer holdback, SP's new-epoch buffer,
// FIFO gaps). Holds use the stack's own
// clock (simulated µs in the simulator, wall µs on the runtime).
//
// One Recorder serves one group and is used from that group's single
// execution context (the simulator thread or the executor shard).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "stack/layer.hpp"
#include "switch/hybrid.hpp"

namespace pb {

enum class LayerId : std::uint8_t {
  kSwitch,
  kSequencer,
  kToken,
  kReliable,
  kFifo,
  kMedium,  // the transport below the bottom layer (send side)
  kOracle,
  kApp,     // the benchmark's delivery callback
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(LayerId::kCount);
const char* layer_name(LayerId l);

enum class Dir : std::uint8_t { kDown = 0, kUp = 1 };

class Recorder {
 public:
  static constexpr std::uint64_t kNoMsg = ~0ULL;

  /// `layers`: the stack's layers that hold messages (hold samples are
  /// taken for these). Messages with id % sample_every == 0 are sampled.
  Recorder(std::size_t members, std::vector<LayerId> layers, std::uint64_t sample_every);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  struct Span {
    Span(Recorder& r, LayerId l, Dir d, std::uint64_t msg = kNoMsg) : r_(r) { r_.enter(l, d, msg); }
    ~Span() { r_.leave(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder& r_;
  };

  bool sampled(std::uint64_t msg) const { return msg % sample_every_ == 0; }

  /// A message crossed from `from` into `to` at `node` (stack time `now`).
  /// Returns the benchmark message id, or kNoMsg for control traffic.
  std::uint64_t cross(std::uint32_t node, LayerId from, LayerId to, Dir d,
                      const msw::Message& m, msw::Time now);
  /// The send task is about to hand benchmark message `msg` to the top layer.
  void root_send(std::uint32_t node, LayerId top, std::uint64_t msg, msw::Time now);
  /// The top layer delivered benchmark message `msg` to the application.
  void app_deliver(std::uint32_t node, LayerId top, std::uint64_t msg, msw::Time now);

  /// Stack::send span totals (inclusive), for stack.send_ns.
  void add_stack_send(std::int64_t ns) {
    stack_send_ns_ += static_cast<std::uint64_t>(ns);
    ++stack_sends_;
  }

  struct Bill {
    std::array<std::array<std::uint64_t, 2>, kLayerCount> self_ns{};
    std::array<std::array<std::uint64_t, 2>, kLayerCount> calls{};
    std::uint64_t stack_send_ns = 0;
    std::uint64_t stack_sends = 0;
  };
  /// Cumulative totals so far; subtract two snapshots to bill a window.
  Bill bill() const;
  static Bill diff(const Bill& a, const Bill& b);

  std::vector<double>& holds(LayerId l) { return holds_[static_cast<std::size_t>(l)]; }
  std::vector<double>& transit_us() { return transit_us_; }

  /// Write the sampled spans as JSON lines; returns false on I/O failure.
  bool write_spans(const std::string& path) const;

 private:
  struct Frame {
    LayerId layer;
    Dir dir;
    std::int64_t start;
    std::int64_t child = 0;
    std::uint64_t msg;
  };
  struct Open {
    std::uint32_t node;
    LayerId layer;
    msw::Time at;
  };
  struct UpSum {
    std::uint32_t node;
    LayerId layer;
    double us;
  };
  struct Sampled {
    std::vector<Open> open;
    std::array<double, kLayerCount> down_us{};
    std::vector<UpSum> up;
    std::int64_t left_bottom_ns = 0;  // last time it left a sender's stack
    std::size_t delivered = 0;
  };
  struct SpanRec {
    std::uint64_t msg;
    LayerId layer;
    Dir dir;
    std::uint8_t depth;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t self_ns;
  };

  void enter(LayerId l, Dir d, std::uint64_t msg);
  void leave();
  void track(std::uint32_t node, LayerId from, LayerId to, Dir d, std::uint64_t msg,
             msw::Time now);

  std::size_t members_;
  std::vector<LayerId> layers_;
  std::uint64_t sample_every_;
  std::vector<Frame> stack_;
  Bill bill_;
  std::uint64_t stack_send_ns_ = 0;
  std::uint64_t stack_sends_ = 0;
  std::unordered_map<std::uint64_t, Sampled> live_;
  std::array<std::vector<double>, kLayerCount> holds_;
  std::vector<double> transit_us_;
  std::vector<SpanRec> spans_;
  std::int64_t t0_ns_;
};

/// Pass-through layer between `above` and `below`. Forwards batches as
/// batches, so the data path the probes observe is the untraced one.
class ProbeLayer final : public msw::Layer {
 public:
  ProbeLayer(Recorder& rec, std::uint32_t node, LayerId above, LayerId below)
      : rec_(rec), node_(node), above_(above), below_(below) {}

  std::string_view name() const override { return "probe"; }
  void down(msw::Message m) override;
  void up(msw::Message m) override;
  void down_batch(msw::MessageBatch b) override;
  void up_batch(msw::MessageBatch b) override;

 private:
  Recorder& rec_;
  std::uint32_t node_;
  LayerId above_;
  LayerId below_;
};

/// Oracle decorator: counts and times every consult of the wrapped oracle.
class TimedOracle final : public msw::Oracle {
 public:
  struct Counts {
    std::uint64_t consults = 0;
    std::uint64_t ns = 0;
    std::uint64_t decisions = 0;
  };

  /// `on_decision` (optional) runs whenever the wrapped oracle decides to
  /// switch.
  TimedOracle(std::unique_ptr<msw::Oracle> inner, Recorder& rec, Counts& counts,
              std::function<void()> on_decision = {})
      : inner_(std::move(inner)), rec_(rec), counts_(counts), on_decision_(std::move(on_decision)) {}

  void attach(msw::Services& services) override { inner_->attach(services); }
  bool should_switch(const msw::OracleView& view) override;

 private:
  std::unique_ptr<msw::Oracle> inner_;
  Recorder& rec_;
  Counts& counts_;
  std::function<void()> on_decision_;
};

/// The protocol layers of a traced group, by member, for their stats().
struct TracedLayers {
  explicit TracedLayers(std::size_t members)
      : sp(members, nullptr), seq(members, nullptr), tok(members, nullptr), rel(members, nullptr) {}
  std::vector<msw::SwitchLayer*> sp;
  std::vector<msw::SequencerLayer*> seq;
  std::vector<msw::TokenLayer*> tok;
  std::vector<msw::ReliableLayer*> rel;
};

/// SP over {sequencer, token} (cfg.oracle, or ManualOracle when unset)
/// with a probe between every pair of adjacent layers — inside both
/// sub-chains and below SP — and every oracle consult timed into `counts`.
/// Fills `layers` as members are built; sp entries are set by the caller.
msw::LayerFactory traced_hybrid_factory(Recorder& rec, TracedLayers& layers,
                                        const msw::HybridConfig& cfg, TimedOracle::Counts& counts,
                                        std::function<void()> on_decision = {});

/// FifoLayer over ReliableLayer with probes between and below them.
msw::LayerFactory traced_fifo_factory(Recorder& rec, TracedLayers& layers);

}  // namespace pb
