#include "rt/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstdio>

namespace msw {

namespace {
constexpr int kMaxEpollEvents = 64;
/// Upper bound on tasks drained per loop iteration, so a self-reposting
/// task (a send pump) cannot starve socket ingress or timers.
constexpr std::size_t kMaxDrainPerIter = 256;
/// Park at most this long even with an empty timer heap; a cheap backstop
/// against any lost-wakeup bug turning into a hang.
constexpr int kMaxParkMs = 100;
}  // namespace

EventLoop::EventLoop() {
  head_.store(&stub_, std::memory_order_relaxed);
  tail_ = &stub_;
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    std::perror("EventLoop: epoll_create1/eventfd");
    std::abort();
  }
  add_fd(wake_fd_, [this] { drain_wake_eventfd(); });
}

EventLoop::~EventLoop() {
  // Drain any never-run tasks so their closures are destroyed.
  while (TaskNode* n = pop_node()) delete n;
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::int64_t EventLoop::now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void EventLoop::post(Task t) {
  auto* node = new TaskNode;
  node->fn = std::move(t);
  node->next.store(nullptr, std::memory_order_relaxed);
  TaskNode* prev = head_.exchange(node, std::memory_order_acq_rel);
  prev->next.store(node, std::memory_order_release);
  // Dekker-style pairing with run(): either this load sees sleeping_ (and
  // we wake the consumer), or the consumer's post-announce inbox check sees
  // the exchange above and skips the park.
  if (sleeping_.load(std::memory_order_seq_cst)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
}

EventLoop::TaskNode* EventLoop::pop_node() {
  TaskNode* tail = tail_;
  TaskNode* next = tail->next.load(std::memory_order_acquire);
  if (tail == &stub_) {
    if (next == nullptr) return nullptr;
    tail_ = next;
    tail = next;
    next = next->next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    tail_ = next;
    return tail;
  }
  if (tail != head_.load(std::memory_order_acquire)) {
    return nullptr;  // producer mid-push; retry next iteration
  }
  // tail is the last real node: push the stub back so it can be unlinked.
  stub_.next.store(nullptr, std::memory_order_relaxed);
  TaskNode* prev = head_.exchange(&stub_, std::memory_order_acq_rel);
  prev->next.store(&stub_, std::memory_order_release);
  next = tail->next.load(std::memory_order_acquire);
  if (next != nullptr) {
    tail_ = next;
    return tail;
  }
  return nullptr;
}

bool EventLoop::inbox_empty_hint() const {
  if (head_.load(std::memory_order_seq_cst) != tail_) return false;
  return tail_->next.load(std::memory_order_acquire) == nullptr;
}

std::uint64_t EventLoop::add_timer(std::int64_t deadline_ns, TimerFn t) {
  const std::uint64_t token = next_timer_token_++;
  timers_.emplace(token, std::move(t));
  timer_heap_.push(TimerEntry{deadline_ns, token});
  return token;
}

void EventLoop::cancel_timer(std::uint64_t token) {
  timers_.erase(token);  // the stale heap entry is skipped when popped
}

void EventLoop::add_fd(int fd, Task on_readable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    std::perror("EventLoop: epoll_ctl ADD");
    std::abort();
  }
  fd_handlers_[fd] = std::move(on_readable);
}

void EventLoop::remove_fd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_handlers_.erase(fd);
}

void EventLoop::drain_wake_eventfd() {
  std::uint64_t count = 0;
  [[maybe_unused]] ssize_t n = ::read(wake_fd_, &count, sizeof count);
}

void EventLoop::fire_due_timers(std::int64_t now) {
  while (!timer_heap_.empty() && timer_heap_.top().deadline_ns <= now) {
    const TimerEntry e = timer_heap_.top();
    timer_heap_.pop();
    auto it = timers_.find(e.token);
    if (it == timers_.end()) continue;  // cancelled
    TimerFn fn = std::move(it->second);
    timers_.erase(it);
    ++timers_fired_;
#if MSW_RT_STATS_ENABLED
    // Loop-lag: how late this fire is versus its scheduled deadline. `now`
    // is sampled once per drain pass, so same-pass timers share a stamp.
    if (observer_ != nullptr) observer_->on_timer_lag(now - e.deadline_ns);
#endif
    fn();
  }
}

int EventLoop::next_timeout_ms(std::int64_t now) const {
  if (timer_heap_.empty()) return kMaxParkMs;
  // Cancelled entries at the top would only shorten the park — harmless.
  const std::int64_t delta = timer_heap_.top().deadline_ns - now;
  if (delta <= 0) return 0;
  const std::int64_t ms = (delta + 999'999) / 1'000'000;  // round up
  return static_cast<int>(ms < kMaxParkMs ? ms : kMaxParkMs);
}

void EventLoop::run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  epoll_event events[kMaxEpollEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    fire_due_timers(now_ns());

    std::size_t drained = 0;
    while (drained < kMaxDrainPerIter) {
      TaskNode* n = pop_node();
      if (n == nullptr) break;
      Task fn = std::move(n->fn);
      delete n;
      ++tasks_run_;
      ++drained;
      fn();
    }
#if MSW_RT_STATS_ENABLED
    // Consumer-side backlog probe: what this pass drained is the loop's own
    // measure of how far behind it was, and costs the producers nothing.
    // Saturates at kMaxDrainPerIter under overload.
    inbox_last_ = static_cast<std::int64_t>(drained);
    if (inbox_last_ > inbox_hwm_) inbox_hwm_ = inbox_last_;
#endif
    if (stop_.load(std::memory_order_acquire)) break;

    int timeout_ms = 0;
    if (drained < kMaxDrainPerIter) {
      // Inbox looked dry: announce the park, then re-check — a producer
      // that missed the announcement must have pushed before it, and the
      // re-check sees that push.
      sleeping_.store(true, std::memory_order_seq_cst);
      if (inbox_empty_hint() && !stop_.load(std::memory_order_acquire)) {
        timeout_ms = next_timeout_ms(now_ns());
      }
    }
    const int nfds = epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
    sleeping_.store(false, std::memory_order_seq_cst);
    if (timeout_ms > 0) ++wakeups_;
    for (int i = 0; i < nfds; ++i) {
      auto it = fd_handlers_.find(events[i].data.fd);
      if (it != fd_handlers_.end()) it->second();
    }
  }
  loop_thread_.store(std::thread::id{}, std::memory_order_release);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

}  // namespace msw
