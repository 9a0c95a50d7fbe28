// End-to-end latency per group, on its transport's clock (wall time on
// threads): the delta between a multicast's submission to the sender's
// stack and each member's app-level delivery.
//
// Everything here runs on the group's execution context — Group::send
// stamps the send, deliveries arrive through the stack's on_deliver hook,
// and a group is pinned wholesale to one shard — so the open-message table
// needs no synchronization. Messages are keyed by
// (sender, seq), the same identity the trace plane uses; an entry retires
// after `fanout` deliveries (every member, sender included, delivers).
//
// Two things keep the probe off the per-message critical path:
//
//   * Sampling. With sample_shift = s, only multicasts whose seq has its
//     low s bits clear are stamped (1 in 2^s). Callers gate on sampled()
//     BEFORE reading the clock or touching the table, so an unsampled
//     delivery costs one mask-and-compare. Quantile estimates are
//     unaffected — the histogram just accumulates fewer samples — and
//     shift 0 restores exact every-message accounting (what the tests
//     use).
//   * A fixed open-addressing table instead of a node-based map. Open
//     stamps live in a flat power-of-two array probed linearly from a
//     multiplicative hash; lookups touch one or two cache lines and the
//     tracker never allocates after construction. If a probe window is
//     full (pathological in-flight load), the oldest stamp in the window
//     is evicted and its remaining deliveries land as `untracked` —
//     counted, not guessed at.
//
// Deliveries with no matching stamp (sends issued around the tracker's
// attachment, evictions, or direct stack(i).send() calls that bypassed
// Group::send) are counted in `untracked`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace msw {

class LatencyTracker {
 public:
  /// Registers `rt.latency_us.<name>` (histogram) and
  /// `rt.latency.untracked.<name>` (counter) on `reg` — the owning shard's
  /// registry. Wiring phase only. `fanout` is the group size;
  /// `sample_shift` selects 1-in-2^shift stamping (0 = every multicast).
  LatencyTracker(MetricsRegistry& reg, const std::string& name, std::size_t fanout,
                 unsigned sample_shift = 0);

  const std::string& name() const { return name_; }

  /// True when (sender, seq) would be stamped. Callers check this before
  /// paying for a clock read — the whole fast path for unsampled traffic.
  bool sampled(std::uint64_t seq) const { return (seq & sample_mask_) == 0; }
  /// The raw mask, for inline gating at the Stack hook (set_on_deliver's
  /// sample_mask) so unsampled deliveries skip the indirect call entirely.
  std::uint64_t sample_mask() const { return sample_mask_; }

  /// Group's context: a multicast with (sender, seq) was submitted at `t_us`.
  /// No-op for unsampled seqs.
  void on_send(std::uint32_t sender, std::uint64_t seq, Time t_us);

  /// Group's context: one member delivered (sender, seq) at `t_us`.
  /// No-op for unsampled seqs.
  void on_deliver(std::uint32_t sender, std::uint64_t seq, Time t_us);

  const MetricsRegistry::Histogram& hist() const { return hist_; }
  std::uint64_t untracked() const { return untracked_.value(); }
  /// Stamped multicasts not yet fully delivered (bounded by in-flight load).
  std::size_t open() const { return open_count_; }

 private:
  static constexpr std::size_t kSlotBits = 12;  // 4096 slots, ~96KB per group
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kProbe = 8;  // linear probe window

  static std::uint64_t key(std::uint32_t sender, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(sender) << 48) ^ seq;
  }
  static std::size_t index(std::uint64_t k) {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits));
  }

  struct Slot {
    std::uint64_t key = 0;
    Time t_send = 0;
    std::uint32_t remaining = 0;  // 0 = slot empty
  };

  std::string name_;
  MetricsRegistry::Histogram& hist_;
  MetricsRegistry::Counter& untracked_;
  std::uint32_t fanout_;
  std::uint64_t sample_mask_;
  std::vector<Slot> slots_;  // sized kSlots once; never reallocates
  std::size_t open_count_ = 0;
};

}  // namespace msw
