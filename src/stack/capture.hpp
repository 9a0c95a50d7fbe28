// Trace capture at the application boundary.
//
// One TraceCapture is shared by every stack in a group; Send and Deliver
// events are appended in simulated-time order (the scheduler serializes
// all activity), yielding exactly the global traces of the paper's system
// model, ready for the property checkers in trace/.
#pragma once

#include <span>

#include "net/node_id.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace msw {

class TraceCapture {
 public:
  void record_send(NodeId sender, const MsgId& id, std::span<const Byte> body, Time t);
  void record_deliver(NodeId process, const MsgId& id, std::span<const Byte> body, Time t);

  const Trace& trace() const { return trace_; }
  void clear() { trace_.clear(); }

  /// Number of Send events recorded for the given process.
  std::size_t send_count(NodeId process) const;

 private:
  Trace trace_;
};

}  // namespace msw
