// The system model of the paper, section 3.
//
// Processes multicast messages; a trace is an ordered sequence of Send and
// Deliver events with no duplicate Sends. Properties (trace/properties.hpp)
// are predicates over traces; meta-properties (trace/meta.hpp) are
// predicates over properties defined by preservation under trace relations.
//
// This module has no dependency on the simulator or protocol stack: traces
// can be hand-built, generated, or captured from live protocol runs.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace msw {

/// Globally unique message identity. `kind` separates ordinary data
/// messages from view-change notifications (used by the Virtual Synchrony
/// property), so the two never collide in one id space.
struct MsgId {
  enum class Kind : std::uint8_t { kData = 0, kView = 1 };

  std::uint32_t sender = 0;
  std::uint64_t seq = 0;
  Kind kind = Kind::kData;

  auto operator<=>(const MsgId&) const = default;
};

std::string to_string(const MsgId& id);

struct TraceEvent {
  enum class Kind : std::uint8_t { kSend = 0, kDeliver = 1 };

  Kind kind = Kind::kSend;
  /// For kSend this equals msg.sender; for kDeliver it is the delivering
  /// process.
  std::uint32_t process = 0;
  MsgId msg;
  /// Message body. Properties that inspect content (No Replay) compare
  /// bodies; others ignore it.
  Bytes body;
  /// Simulated wall-clock time of the event; informational only — no
  /// property in the paper's model may depend on real time.
  Time time = 0;

  bool is_send() const { return kind == Kind::kSend; }
  bool is_deliver() const { return kind == Kind::kDeliver; }
  bool is_view_marker() const { return msg.kind == MsgId::Kind::kView; }

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.kind == b.kind && a.process == b.process && a.msg == b.msg && a.body == b.body;
    // `time` intentionally excluded: event identity is position + content.
  }
};

using Trace = std::vector<TraceEvent>;

/// Convenience constructors for hand-built traces in tests and corpora.
TraceEvent send_ev(std::uint32_t sender, std::uint64_t seq, Bytes body = {});
TraceEvent deliver_ev(std::uint32_t process, std::uint32_t sender, std::uint64_t seq,
                      Bytes body = {});
TraceEvent view_deliver_ev(std::uint32_t process, std::uint32_t coordinator,
                           std::uint64_t view_id);

/// True when no two Send events carry the same MsgId (the paper's
/// well-formedness condition on traces).
bool well_formed(const Trace& tr);

/// All process ids appearing in the trace (sorted, unique).
std::vector<std::uint32_t> processes_of(const Trace& tr);

/// All distinct message ids appearing in the trace (sorted, unique).
std::vector<MsgId> messages_of(const Trace& tr);

/// Human-readable one-line-per-event rendering, for counterexample output.
std::string to_string(const Trace& tr);

/// Order-sensitive 64-bit digest over every event field, timestamps
/// included. Two runs produce the same digest iff they produced the same
/// trace at the same simulated instants — the fingerprint the determinism
/// tests and the fuzzer compare across runs.
std::uint64_t trace_digest(const Trace& tr);

}  // namespace msw
