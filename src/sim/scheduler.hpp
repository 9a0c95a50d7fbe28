// Discrete-event scheduler.
//
// Events execute in (time, insertion-sequence) order, so simultaneous
// events run in a deterministic order and the whole simulation is exactly
// reproducible for a given seed.
//
// Handlers live in a slot pool indexed by the heap entries: an EventId is
// a (slot, generation) pair, and every scheduling operation is an O(1)
// array access instead of a hash-map probe. Cancellation destroys the
// handler eagerly and bumps the slot's generation; the stale heap entry
// is skipped when popped because its recorded generation no longer
// matches. Slots are recycled through a free list, so the steady-state
// hot loop (schedule, dispatch, retire) performs no allocation at all
// when handler captures fit UniqueFunction's inline buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/clock.hpp"
#include "util/bytes.hpp"
#include "util/function_ref.hpp"

namespace msw {

class MetricsRegistry;

/// Bump allocator scoped to one scheduler tick. Network::multicast_run
/// draws its fan-out grouping tables from it, and the whole arena is
/// released wholesale when simulated time advances, so the steady-state
/// run scatter performs no per-message allocation.
///
/// Only trivially-destructible data may live here (nothing runs destructors
/// on reset), and nothing allocated from the arena may outlive the tick:
/// anything that crosses a scheduler event boundary (in-flight packets,
/// retained frames) must own its storage the ordinary way.
class TickArena {
 public:
  /// Raw allocation, aligned for any scalar type. Valid until the clock
  /// next advances.
  void* alloc(std::size_t bytes);

  /// Typed array allocation; T must be trivially destructible (nothing is
  /// destroyed on reset). The memory is uninitialized.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "TickArena never runs destructors");
    return static_cast<T*>(alloc(n * sizeof(T)));
  }

  /// Release everything allocated this tick. Blocks are retained for
  /// reuse; only the bump cursor rewinds.
  void reset();

 private:
  struct Block {
    std::unique_ptr<Byte[]> mem;
    std::size_t cap = 0;
  };

  static constexpr std::size_t kBlockSize = 64 * 1024;

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;
  std::size_t off_ = 0;
};

/// Handle for a scheduled event, usable with Scheduler::cancel. A default
/// constructed id is invalid; ids are never reused (generations advance
/// when a slot is recycled).
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  bool valid() const { return gen != 0; }
  friend bool operator==(EventId a, EventId b) { return a.slot == b.slot && a.gen == b.gen; }
};

class Scheduler : public TelemetryClock {
 public:
  using Fn = UniqueFunction<void()>;

  /// Schedule fn at absolute time t (>= now).
  EventId at(Time t, Fn fn);

  /// Schedule fn after a relative delay (>= 0).
  EventId after(Duration d, Fn fn);

  /// Cancel a pending event; its handler (and any resources its closure
  /// owns) is destroyed immediately. Cancelling an already-run or unknown
  /// event is a no-op, so layers may cancel timers unconditionally in
  /// teardown.
  void cancel(EventId id);

  /// Run the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or the next event is after t;
  /// the clock is then advanced to t (if t is ahead).
  void run_until(Time t);

  /// Run events until the queue is empty.
  void run();

  /// Run at most `limit` events; returns the number actually run. Guards
  /// against livelock in tests exercising pathological configurations.
  std::size_t run_bounded(std::size_t limit);

  Time now() const { return now_; }
  /// TelemetryClock: event timestamps in the sim domain are simulated time.
  Time telemetry_now() const override { return now_; }
  std::size_t pending() const { return size_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }
  /// High-water mark of simultaneously pending events.
  std::uint64_t peak_pending() const { return peak_pending_; }

  /// Register the scheduler's counters on `reg` under "sched." names.
  void bind_metrics(MetricsRegistry& reg) const;

  /// Per-tick allocator for Network::multicast_run. Reset automatically
  /// whenever the clock advances to a new tick; see TickArena for lifetime
  /// rules.
  TickArena& tick_arena() { return arena_; }

 private:
  struct Ev {
    Time t;
    std::uint64_t seq;   // global insertion order, the deterministic tiebreak
    std::uint32_t slot;  // handler location
    std::uint32_t gen;   // must match the slot's generation to be live
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Fn fn;
    std::uint32_t gen = 1;  // 0 is reserved for the invalid EventId
  };

  bool pop_one();

  /// Free a slot for reuse: advance its generation (invalidating any ids
  /// and heap entries that reference the old one) and push it on the free
  /// list. The handler must already be moved out or destroyed.
  void retire_slot(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t size_ = 0;  // live (non-cancelled) events
  std::uint64_t peak_pending_ = 0;
  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TickArena arena_;
};

}  // namespace msw
