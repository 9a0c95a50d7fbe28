#include "telemetry/latency.hpp"

namespace msw {

LatencyTracker::LatencyTracker(MetricsRegistry& reg, const std::string& name,
                               std::size_t fanout, unsigned sample_shift)
    : name_(name),
      hist_(reg.histogram("rt.latency_us." + name)),
      untracked_(reg.counter("rt.latency.untracked." + name)),
      fanout_(static_cast<std::uint32_t>(fanout)),
      sample_mask_((std::uint64_t{1} << sample_shift) - 1),
      slots_(kSlots) {}

void LatencyTracker::on_send(std::uint32_t sender, std::uint64_t seq, Time t_us) {
  if (!sampled(seq)) return;
  const std::uint64_t k = key(sender, seq);
  const std::size_t base = index(k);
  Slot* victim = nullptr;
  for (std::size_t i = 0; i < kProbe; ++i) {
    Slot& s = slots_[(base + i) & (kSlots - 1)];
    if (s.remaining == 0) {
      s = Slot{k, t_us, fanout_};
      ++open_count_;
      return;
    }
    if (victim == nullptr || s.t_send < victim->t_send) victim = &s;
  }
  // Probe window full: evict the oldest stamp. Its remaining deliveries
  // will miss and be counted as untracked; open_count_ is unchanged (one
  // open entry replaced by another).
  *victim = Slot{k, t_us, fanout_};
}

void LatencyTracker::on_deliver(std::uint32_t sender, std::uint64_t seq, Time t_us) {
  if (!sampled(seq)) return;
  const std::uint64_t k = key(sender, seq);
  const std::size_t base = index(k);
  for (std::size_t i = 0; i < kProbe; ++i) {
    Slot& s = slots_[(base + i) & (kSlots - 1)];
    if (s.remaining != 0 && s.key == k) {
      const Time delta = t_us - s.t_send;
      hist_.record(static_cast<std::uint64_t>(delta < 0 ? 0 : delta));
      if (--s.remaining == 0) --open_count_;
      return;
    }
  }
  untracked_.inc();
}

}  // namespace msw
