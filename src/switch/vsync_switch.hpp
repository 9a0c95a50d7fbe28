// Virtually-synchronous protocol switching — the paper's future-work
// alternative (section 8): "virtually synchronous view changes can be used
// to switch protocols, and this more complicated mechanism does support
// the Virtual Synchrony property."
//
// Like SwitchLayer, this layer hosts two underlying protocol chains over
// private mux channels and an epoch-tagged data path. The difference is
// the switch mechanism: a coordinator-driven flush in the style of the
// membership layer (proto/vsync_layer.hpp):
//
//   FLUSH_REQ — every member STOPS SENDING (sends queue; this is the cost
//               relative to SP, which never blocks senders) and reports its
//               sent count;
//   CUT       — the coordinator disseminates the exact per-member counts;
//               a member that has delivered the whole cut installs the new
//               epoch, delivers a view notification to the application,
//               switches protocols, and releases its queued sends.
//
// Because every member delivers exactly the cut between consecutive view
// notifications, the application-boundary trace is virtually synchronous
// ACROSS the protocol switch — which the token-based SP cannot guarantee
// (Virtual Synchrony is not Memoryless, Table 2). Benchmark E7 contrasts
// the two.
//
// Control messages ride the raw control channel; the coordinator
// retransmits the current phase until every member confirms, and members
// treat duplicates idempotently, so the switch completes on a fair-lossy
// network.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "stack/layer.hpp"
#include "switch/multiplex_layer.hpp"

namespace msw {

class VsyncSwitchLayer : public Layer {
 public:
  VsyncSwitchLayer(std::vector<std::unique_ptr<Layer>> proto_a,
                   std::vector<std::unique_ptr<Layer>> proto_b);
  ~VsyncSwitchLayer() override;

  std::string_view name() const override { return "vsync-switch"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  /// Initiate a switch. On the coordinator this starts the flush; on any
  /// other member it forwards the request to the coordinator.
  void request_switch();

  std::uint64_t epoch() const { return epoch_; }
  int active_protocol() const { return static_cast<int>(epoch_ % 2); }
  bool switching() const { return flushing_; }
  /// Application sends queued while the flush blocks sending.
  std::size_t blocked_sends() const { return queued_.size(); }

  struct Stats {
    std::uint64_t switches_completed = 0;
    Duration last_switch_duration = 0;  // coordinator: request to all-done
    std::uint64_t control_retransmissions = 0;
    std::uint64_t decode_drops = 0;  // frames failing decode (data or control)
  };
  const Stats& stats() const { return stats_; }

 private:
  bool is_coordinator() const { return ctx().self() == ctx().members().front(); }
  NodeId coordinator() const { return ctx().members().front(); }

  void on_subprotocol_deliver(int protocol, Message m);
  void deliver_counted(std::uint32_t sender, Message m);
  void maybe_install();
  void install_epoch();

  void on_control(Message m);
  void begin_flush(std::uint64_t closing_epoch);
  void send_flush_ok();
  void coordinator_tick();
  void send_cut();

  LayerChain& chain(int protocol) { return protocol == 0 ? *chain_a_ : *chain_b_; }

  std::vector<std::unique_ptr<Layer>> layers_a_;
  std::vector<std::unique_ptr<Layer>> layers_b_;
  std::unique_ptr<LayerChain> chain_a_;
  std::unique_ptr<LayerChain> chain_b_;

  // Epoch / data state (as in SwitchLayer).
  std::uint64_t epoch_ = 0;
  std::uint64_t sent_this_epoch_ = 0;
  std::map<std::uint32_t, std::uint64_t> delivered_this_epoch_;
  struct BufferedDeliver {
    std::uint32_t sender;
    Message m;
  };
  std::vector<BufferedDeliver> buffered_next_;

  // Flush state (member side).
  bool flushing_ = false;
  bool have_cut_ = false;
  std::map<std::uint32_t, std::uint64_t> cut_counts_;
  std::deque<Message> queued_;

  // Coordinator state.
  enum class Phase : std::uint8_t { kIdle, kCollectingOks, kAwaitingDone };
  Phase phase_ = Phase::kIdle;
  std::uint64_t closing_epoch_ = 0;
  std::map<std::uint32_t, std::uint64_t> flush_oks_;
  std::set<std::uint32_t> done_;
  Time switch_started_ = 0;

  Stats stats_;
};

/// Factory: vsync switching over two sub-protocol factories.
LayerFactory make_vsync_switch_factory(LayerFactory proto_a, LayerFactory proto_b);

/// The VsyncSwitchLayer of a member stack built by the factory above.
VsyncSwitchLayer& vsync_switch_layer_of(class Stack& stack);

}  // namespace msw
