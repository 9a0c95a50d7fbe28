// Deterministic fault-injection plane.
//
// A FaultSchedule is declarative data: timed events (link cuts, partitions
// with heal, node crash/restart, jitter bursts) plus two continuous knobs
// (per-copy duplication and bounded reordering). A FaultPlane installs a
// schedule onto a Network: timed events run off the simulation scheduler,
// and the continuous knobs are applied per delivered copy through the
// Network's FaultInjector hook. All randomness comes from per-link streams
// forked off the plane's seeded Rng, so a schedule replayed under the same
// seed perturbs the simulation identically — the property the determinism
// tests and the fuzzer's minimal reproducers rely on.
//
// Schedules serialize to a compact one-line string (to_string/parse) so a
// fuzzer failure is reproducible from a command line:
//   fuzz_switch --seed 42 --schedule 'dup=0.05@40000;crash@800000:1;restart@1400000:1'
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace msw {

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkDown = 0,  // cut one directed link a -> b
    kLinkUp,        // restore it
    kPartition,     // isolate the nodes in `mask` from the rest (both ways)
    kHeal,          // undo a partition with the same mask
    kCrash,         // node a: down + receive queue lost
    kRestart,       // node a: back up
    kJitterBurst,   // for `duration`, every copy gains uniform [0, magnitude]
  };

  Kind kind = Kind::kLinkDown;
  Time at = 0;
  std::uint32_t a = 0;  // kLinkDown/kLinkUp: source; kCrash/kRestart: node
  std::uint32_t b = 0;  // kLinkDown/kLinkUp: destination
  std::uint64_t mask = 0;       // kPartition/kHeal: bit i == node i isolated
  Duration duration = 0;        // kJitterBurst: window length
  Duration magnitude = 0;       // kJitterBurst: max extra delay per copy
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
  /// Probability that a surviving copy is delivered twice.
  double dup_prob = 0.0;
  /// The duplicate arrives up to this much after the original.
  Duration dup_delay_max = 40 * kMillisecond;
  /// Probability that a copy is held back by uniform [0, reorder_delay_max]
  /// — later packets on the link overtake it (bounded reordering).
  double reorder_prob = 0.0;
  Duration reorder_delay_max = 20 * kMillisecond;

  bool empty() const { return events.empty() && dup_prob == 0.0 && reorder_prob == 0.0; }
  /// Events plus one unit for each active continuous knob — the size the
  /// fuzzer's shrinker minimizes and reports.
  std::size_t weight() const {
    return events.size() + (dup_prob > 0.0 ? 1 : 0) + (reorder_prob > 0.0 ? 1 : 0);
  }

  /// Compact one-line form, parseable by parse(). Events are ';'-separated;
  /// an empty schedule renders as "none".
  std::string to_string() const;
  /// Inverse of to_string(); nullopt on malformed input.
  static std::optional<FaultSchedule> parse(std::string_view s);
};

/// Randomized-schedule generator for the fuzzer and robustness tests.
/// Every disruptive event is paired with its recovery (link up, heal,
/// restart) strictly before `horizon`, so a run given enough drain time
/// afterwards faces a healed network.
struct FaultGenOptions {
  std::size_t max_crashes = 0;  // off by default: opt in (fuzz_switch --crash)
};

FaultSchedule generate_fault_schedule(Rng& rng, std::size_t n_nodes, Time horizon,
                                      const FaultGenOptions& opts = {});

/// Binds a FaultSchedule to a Network. install() arms the timed events and
/// registers the per-copy hook; the plane must outlive the simulation run
/// (the destructor cancels pending events and unregisters the hook).
class FaultPlane : public FaultInjector {
 public:
  FaultPlane(Network& net, Rng rng, FaultSchedule schedule);
  ~FaultPlane() override;

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  void install();

  const FaultSchedule& schedule() const { return schedule_; }

  CopyPlan on_copy(NodeId from, NodeId to, Time now) override;

 private:
  void apply(const FaultEvent& e);
  Rng& link_stream(NodeId from, NodeId to);

  Network& net_;
  Rng rng_;
  std::uint64_t link_seed_base_;
  FaultSchedule schedule_;
  bool installed_ = false;
  std::vector<EventId> armed_;
  /// Active jitter-burst windows: (end time, max extra delay).
  std::vector<std::pair<Time, Duration>> bursts_;
  std::unordered_map<std::uint64_t, Rng> link_rngs_;
};

}  // namespace msw
