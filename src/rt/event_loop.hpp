// One executor shard's engine: an epoll event loop owning a lock-free MPSC
// task inbox, a one-shot timer heap, and any number of readable file
// descriptors (UDP sockets, the wakeup eventfd).
//
// Threading model:
//   - post() is the only cross-thread entry point: any thread may enqueue
//     a task; the loop thread dequeues and runs it. The inbox is a Vyukov
//     intrusive MPSC queue — producers contend on one atomic exchange,
//     the consumer never takes a lock.
//   - Everything else (timers, fd registration after start) belongs to the
//     loop thread, or to the single-threaded wiring phase before run() /
//     after the thread is joined. This mirrors the per-node
//     single-threadedness the protocol layers rely on: a shard's nodes
//     run only here, so their timers never need locking.
//   - The loop parks in epoll_wait when idle; producers wake it through an
//     eventfd, but only when the consumer has announced it is (or may be
//     about to start) sleeping — the loaded steady state posts with no
//     syscall at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/function_ref.hpp"

// Compile-time gate for the hot-path health instrumentation (drain-pass
// backlog probe, timer-lag observer calls). CMake defines it 0/1 from the
// MSW_RT_STATS option; OFF leaves the loop byte-for-byte at its PR-8 cost
// so the stats-overhead CI guard measures exactly the instrumentation
// delta. All probes are consumer-side: post() is identical either way.
#ifndef MSW_RT_STATS_ENABLED
#define MSW_RT_STATS_ENABLED 1
#endif

namespace msw {

/// Loop-health callback surface: installed during the single-threaded
/// wiring phase, invoked on the loop thread only. The rt stats plane's
/// per-shard registry implements it; keeping it an interface avoids an
/// rt -> rt/stats dependency cycle.
class LoopObserver {
 public:
  virtual ~LoopObserver() = default;
  /// A timer fired `lag_ns` after its scheduled deadline (>= 0).
  virtual void on_timer_lag(std::int64_t lag_ns) = 0;
};

class EventLoop {
 public:
  using Task = std::function<void()>;
  /// Timer callbacks are move-only with inline storage: arming a timer with
  /// a small closure (every layer timer) never heap-allocates.
  using TimerFn = UniqueFunction<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueue a task for the loop thread. Thread-safe, lock-free, allocates
  /// one inbox node. Tasks run in FIFO order per producer (and in a single
  /// global order — the queue is totally ordered).
  void post(Task t);

  /// One-shot timer at an absolute CLOCK_MONOTONIC deadline (ns). Loop
  /// thread (or wiring phase) only. Returns a token for cancel_timer; 0 is
  /// never returned.
  std::uint64_t add_timer(std::int64_t deadline_ns, TimerFn t);

  /// Drop a pending timer. Unknown/fired tokens are a no-op. Loop thread
  /// (or wiring phase / post-join teardown) only.
  void cancel_timer(std::uint64_t token);

  /// Watch `fd` for readability; `on_readable` runs on the loop thread
  /// whenever epoll reports it. Wiring phase or loop thread only.
  void add_fd(int fd, Task on_readable);
  void remove_fd(int fd);

  /// Run until stop(). Call from exactly one thread (the shard thread).
  void run();

  /// Ask the loop to exit; thread-safe, returns immediately.
  void stop();

  /// CLOCK_MONOTONIC now, nanoseconds.
  static std::int64_t now_ns();

  /// True when called from inside run() on the loop thread. Any thread may
  /// ask (ThreadedTransport::call uses it to decide inline vs. post-and-
  /// wait), so the id is atomic: acquire pairs with run()'s release
  /// publication.
  bool on_loop_thread() const {
    return loop_thread_.load(std::memory_order_acquire) == std::this_thread::get_id();
  }

  /// Install the loop-health observer. Wiring phase only (before run()).
  void set_observer(LoopObserver* obs) { observer_ = obs; }

  // Observability (read from the loop thread, or after the thread joined).
  std::uint64_t tasks_run() const { return tasks_run_; }
  std::uint64_t timers_fired() const { return timers_fired_; }
  std::uint64_t wakeups() const { return wakeups_; }
  /// Pending + in-flight timers (live heap entries; cancelled-but-unpopped
  /// tokens are excluded). Loop thread or post-join only.
  std::size_t timer_heap_size() const { return timers_.size(); }

  // Consumer-side backlog probes, populated only when MSW_RT_STATS_ENABLED.
  // Producers pay nothing for these: the loop counts what it drains, so the
  // numbers are per-pass backlog observations, not an exact queue size.
  /// Tasks drained in the most recent completed drain pass — the loop's own
  /// view of how far behind it was when it came around. Saturates at the
  /// per-iteration drain cap under overload. Loop thread or post-join only.
  std::int64_t inbox_depth() const { return inbox_last_; }
  /// High-water mark of inbox_depth(). Loop thread or post-join only.
  std::int64_t inbox_depth_hwm() const { return inbox_hwm_; }

 private:
  struct TaskNode {
    std::atomic<TaskNode*> next{nullptr};
    Task fn;
  };
  struct TimerEntry {
    std::int64_t deadline_ns;
    std::uint64_t token;
    bool operator>(const TimerEntry& o) const {
      if (deadline_ns != o.deadline_ns) return deadline_ns > o.deadline_ns;
      return token > o.token;  // insertion order tiebreak: tokens ascend
    }
  };

  /// Dequeue one task; returns nullptr when empty (or when a producer is
  /// mid-push — the item will be visible on the next attempt).
  TaskNode* pop_node();
  bool inbox_empty_hint() const;
  void fire_due_timers(std::int64_t now);
  int next_timeout_ms(std::int64_t now) const;
  void drain_wake_eventfd();

  // MPSC inbox (Vyukov): producers exchange head_, consumer chases tail_.
  std::atomic<TaskNode*> head_;
  TaskNode* tail_;  // consumer-only
  TaskNode stub_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> sleeping_{false};

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, Task> fd_handlers_;

  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>> timer_heap_;
  std::unordered_map<std::uint64_t, TimerFn> timers_;  // live timers by token
  std::uint64_t next_timer_token_ = 1;

  std::atomic<std::thread::id> loop_thread_{};
  std::uint64_t tasks_run_ = 0;
  std::uint64_t timers_fired_ = 0;
  std::uint64_t wakeups_ = 0;

  LoopObserver* observer_ = nullptr;  // wiring-phase set, loop-thread use
  std::int64_t inbox_last_ = 0;       // consumer-only
  std::int64_t inbox_hwm_ = 0;        // consumer-only
};

}  // namespace msw
