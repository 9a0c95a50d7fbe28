#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/metrics.hpp"

namespace msw {

void* TickArena::alloc(std::size_t bytes) {
  // Round up so every allocation is aligned for any scalar type.
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
  while (true) {
    if (cur_block_ < blocks_.size()) {
      Block& b = blocks_[cur_block_];
      if (off_ + bytes <= b.cap) {
        Byte* p = b.mem.get() + off_;
        off_ += bytes;
        return p;
      }
      ++cur_block_;
      off_ = 0;
      continue;
    }
    const std::size_t cap = std::max(kBlockSize, bytes);
    blocks_.push_back(Block{std::make_unique<Byte[]>(cap), cap});
  }
}

void TickArena::reset() {
  cur_block_ = 0;
  off_ = 0;
}

void Scheduler::bind_metrics(MetricsRegistry& reg) const {
  reg.attach_counter("sched.executed", &executed_);
  reg.attach_counter("sched.cancelled", &cancelled_);
  reg.attach_counter("sched.peak_pending", &peak_pending_);
}

EventId Scheduler::at(Time t, Fn fn) {
  assert(t >= now_ && "cannot schedule into the past");
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const std::uint32_t gen = s.gen;
  queue_.push(Ev{t, next_seq_++, slot, gen});
  ++size_;
  peak_pending_ = std::max<std::uint64_t>(peak_pending_, size_);
  return EventId{slot, gen};
}

EventId Scheduler::after(Duration d, Fn fn) {
  assert(d >= 0 && "negative delay");
  if (d < 0) d = 0;
  return at(now_ + d, std::move(fn));
}

void Scheduler::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // skip the reserved invalid generation
  free_slots_.push_back(slot);
}

void Scheduler::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen) return;  // already run, cancelled, or recycled
  // Destroy the handler now: a cancelled closure's captures (buffers,
  // refcounts) must not linger until the stale heap entry drains.
  s.fn = nullptr;
  retire_slot(id.slot);
  --size_;
  ++cancelled_;
}

bool Scheduler::pop_one() {
  while (!queue_.empty()) {
    const Ev ev = queue_.top();
    Slot& s = slots_[ev.slot];
    if (s.gen != ev.gen) {
      queue_.pop();  // cancelled; handler was already destroyed
      continue;
    }
    if (ev.t != now_) arena_.reset();  // tick ended: release the arena
    now_ = ev.t;
    Fn fn = std::move(s.fn);
    retire_slot(ev.slot);
    queue_.pop();
    --size_;
    ++executed_;
    if (fn) fn();
    return true;
  }
  return false;
}

bool Scheduler::step() { return pop_one(); }

void Scheduler::run_until(Time t) {
  while (!queue_.empty()) {
    // Skip cancelled heads without advancing the clock.
    if (slots_[queue_.top().slot].gen != queue_.top().gen) {
      queue_.pop();
      continue;
    }
    if (queue_.top().t > t) break;
    pop_one();
  }
  if (now_ < t) now_ = t;
}

void Scheduler::run() {
  while (pop_one()) {
  }
}

std::size_t Scheduler::run_bounded(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && pop_one()) ++n;
  return n;
}

}  // namespace msw
