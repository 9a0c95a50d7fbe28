#include "rt/stats/shard_stats.hpp"

#include <bit>

namespace msw {
namespace {

/// Slots a registry entry occupies in the flat publication image.
std::size_t slots_for(const MetricsRegistry& reg, const MetricsRegistry::Entry& e) {
  if (reg.histogram_of(e) != nullptr) {
    return 4 + MetricsRegistry::Histogram::kBuckets;  // count, sum, min, max, buckets
  }
  if (reg.gauge_of(e) != nullptr) return 2;  // value, max
  return 1;
}

}  // namespace

ShardStats::ShardStats(EventLoop& loop, std::size_t shard) : loop_(loop), shard_(shard) {
  reg_.attach_counter("rt.loop.tasks", &m_tasks_);
  reg_.attach_counter("rt.loop.timers_fired", &m_timers_);
  reg_.attach_counter("rt.loop.wakeups", &m_wakeups_);
  reg_.attach_counter("rt.loop.inbox_hwm", &m_inbox_hwm_);
  inbox_depth_ = &reg_.gauge("rt.loop.inbox_depth");
  timer_heap_ = &reg_.gauge("rt.loop.timer_heap");
  lag_us_ = &reg_.histogram("rt.loop.lag_us");
  loop_.set_observer(this);
}

void ShardStats::seal() {
  slots_ = 0;
  for (const auto& e : reg_.entries()) slots_ += slots_for(reg_, e);
  scratch_.assign(slots_, 0);
  clean_.assign(slots_, 0);  // the image before the first publication
  buf_.resize(slots_);
  sealed_ = true;
}

void ShardStats::encode() {
  std::size_t o = 0;
  for (const auto& e : reg_.entries()) {
    if (const auto* h = reg_.histogram_of(e)) {
      scratch_[o++] = h->count();
      scratch_[o++] = h->sum();
      scratch_[o++] = h->min();
      scratch_[o++] = h->max();
      const std::uint64_t* b = h->buckets();
      for (std::size_t i = 0; i < MetricsRegistry::Histogram::kBuckets; ++i) {
        scratch_[o++] = b[i];
      }
    } else if (const auto* g = reg_.gauge_of(e)) {
      scratch_[o++] = std::bit_cast<std::uint64_t>(g->value());
      scratch_[o++] = std::bit_cast<std::uint64_t>(g->max());
    } else {
      scratch_[o++] = static_cast<std::uint64_t>(reg_.value_of(e));
    }
  }
}

void ShardStats::flush() {
  m_tasks_ = loop_.tasks_run();
  m_timers_ = loop_.timers_fired();
  m_wakeups_ = loop_.wakeups();
  const std::int64_t hwm = loop_.inbox_depth_hwm();
  m_inbox_hwm_ = static_cast<std::uint64_t>(hwm < 0 ? 0 : hwm);
  const std::int64_t depth = loop_.inbox_depth();
  inbox_depth_->set(depth < 0 ? 0 : depth);
  timer_heap_->set(static_cast<std::int64_t>(loop_.timer_heap_size()));
  encode();
  buf_.publish(scratch_.data(), slots_);
}

bool ShardStats::snapshot(StatsSnapshot& out, std::uint64_t t_us) const {
  out = StatsSnapshot{};
  out.source = source();
  out.t_us = t_us;
  std::vector<std::uint64_t> flat(slots_, 0);
  bool clean = false;
  {
    const std::lock_guard<std::mutex> lock(clean_mu_);
    clean = buf_.read(flat.data(), slots_);
    if (clean) {
      clean_ = flat;
    } else {
      flat = clean_;
    }
  }
  std::size_t o = 0;
  for (const auto& e : reg_.entries()) {
    if (reg_.histogram_of(e) != nullptr) {
      const std::uint64_t count = flat[o];
      const std::uint64_t sum = flat[o + 1];
      const std::uint64_t min = flat[o + 2];
      const std::uint64_t max = flat[o + 3];
      out.hists.push_back(
          summarize_hist_buckets(e.name, &flat[o + 4], count, sum, min, max));
      o += 4 + MetricsRegistry::Histogram::kBuckets;
    } else if (reg_.gauge_of(e) != nullptr) {
      const auto v = std::bit_cast<std::int64_t>(flat[o]);
      const auto m = std::bit_cast<std::int64_t>(flat[o + 1]);
      out.scalars.push_back({e.name, static_cast<std::uint64_t>(v < 0 ? 0 : v)});
      out.scalars.push_back({e.name + ".max", static_cast<std::uint64_t>(m < 0 ? 0 : m)});
      o += 2;
    } else {
      out.scalars.push_back({e.name, flat[o]});
      o += 1;
    }
  }
  return clean;
}

}  // namespace msw
