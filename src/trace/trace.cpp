#include "trace/trace.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/digest.hpp"

namespace msw {

std::string to_string(const MsgId& id) {
  std::ostringstream os;
  os << (id.kind == MsgId::Kind::kView ? "view" : "m") << "(" << id.sender << "," << id.seq
     << ")";
  return os.str();
}

TraceEvent send_ev(std::uint32_t sender, std::uint64_t seq, Bytes body) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSend;
  e.process = sender;
  e.msg = MsgId{sender, seq, MsgId::Kind::kData};
  e.body = std::move(body);
  return e;
}

TraceEvent deliver_ev(std::uint32_t process, std::uint32_t sender, std::uint64_t seq,
                      Bytes body) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kDeliver;
  e.process = process;
  e.msg = MsgId{sender, seq, MsgId::Kind::kData};
  e.body = std::move(body);
  return e;
}

TraceEvent view_deliver_ev(std::uint32_t process, std::uint32_t coordinator,
                           std::uint64_t view_id) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kDeliver;
  e.process = process;
  e.msg = MsgId{coordinator, view_id, MsgId::Kind::kView};
  return e;
}

bool well_formed(const Trace& tr) {
  std::set<MsgId> sent;
  for (const auto& e : tr) {
    if (e.is_send() && !sent.insert(e.msg).second) return false;
  }
  return true;
}

std::vector<std::uint32_t> processes_of(const Trace& tr) {
  std::set<std::uint32_t> s;
  for (const auto& e : tr) s.insert(e.process);
  return {s.begin(), s.end()};
}

std::vector<MsgId> messages_of(const Trace& tr) {
  std::set<MsgId> s;
  for (const auto& e : tr) s.insert(e.msg);
  return {s.begin(), s.end()};
}

std::uint64_t trace_digest(const Trace& tr) {
  Bytes buf;
  Writer w(buf);
  w.u64(tr.size());
  for (const auto& e : tr) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.process);
    w.u32(e.msg.sender);
    w.u64(e.msg.seq);
    w.u8(static_cast<std::uint8_t>(e.msg.kind));
    w.u64(static_cast<std::uint64_t>(e.time));
    w.u64(e.body.size());
    w.bytes(e.body);
  }
  return fnv1a(buf);
}

std::string to_string(const Trace& tr) {
  std::ostringstream os;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& e = tr[i];
    os << "  [" << i << "] " << (e.is_send() ? "Send   " : "Deliver") << " p" << e.process
       << " " << to_string(e.msg);
    if (!e.body.empty()) os << " body=\"" << to_string(std::span<const Byte>(e.body)) << "\"";
    os << "\n";
  }
  return os.str();
}

}  // namespace msw
