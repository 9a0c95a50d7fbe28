#include "rt/threaded_transport.hpp"

#include <future>

namespace msw {

ThreadedTransport::ThreadedTransport(Executor& ex) : ex_(ex), t0_ns_(EventLoop::now_ns()) {}

NodeId ThreadedTransport::add_node(std::size_t shard_hint) {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  NodeRec rec;
  rec.shard = shard_hint % ex_.shards();
  nodes_.push_back(std::move(rec));
  on_node_added(id);
  return id;
}

void ThreadedTransport::set_handler(NodeId node, PacketHandler handler) {
  nodes_[node.v].handler = std::move(handler);
}

TransportTimer ThreadedTransport::set_timer(NodeId node, Duration delay,
                                            UniqueFunction<void()> fn) {
  if (delay < 0) delay = 0;
  const std::int64_t deadline = EventLoop::now_ns() + delay * 1000;  // µs -> ns
  return TransportTimer{loop_of(node).add_timer(deadline, std::move(fn))};
}

void ThreadedTransport::cancel_timer(NodeId node, TransportTimer timer) {
  if (!timer.valid()) return;
  loop_of(node).cancel_timer(timer.v);
}

Time ThreadedTransport::now() const {
  return (EventLoop::now_ns() - t0_ns_) / 1000;  // ns -> µs
}

void ThreadedTransport::call(NodeId node, FunctionRef<void()> fn) {
  EventLoop& loop = loop_of(node);
  if (loop.on_loop_thread() || !ex_.running()) {
    fn();
    return;
  }
  std::promise<void> done;
  std::future<void> wait = done.get_future();
  loop.post([fn, &done] {
    fn();
    done.set_value();
  });
  wait.get();
}

}  // namespace msw
