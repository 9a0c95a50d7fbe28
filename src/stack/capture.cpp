#include "stack/capture.hpp"

namespace msw {

void TraceCapture::record_send(NodeId sender, const MsgId& id, std::span<const Byte> body,
                               Time t) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSend;
  e.process = sender.v;
  e.msg = id;
  e.body.assign(body.begin(), body.end());
  e.time = t;
  trace_.push_back(std::move(e));
}

void TraceCapture::record_deliver(NodeId process, const MsgId& id, std::span<const Byte> body,
                                  Time t) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kDeliver;
  e.process = process.v;
  e.msg = id;
  e.body.assign(body.begin(), body.end());
  e.time = t;
  trace_.push_back(std::move(e));
}

std::size_t TraceCapture::send_count(NodeId process) const {
  std::size_t n = 0;
  for (const auto& e : trace_) {
    if (e.is_send() && e.process == process.v) ++n;
  }
  return n;
}

}  // namespace msw
