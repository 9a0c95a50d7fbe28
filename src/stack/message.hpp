// Messages travelling through a protocol stack.
//
// A Message carries a copy-on-write Payload (see util/payload.hpp). On the
// way down a stack each layer appends its header to the *tail* (with a
// trailing length word); on the way up each layer pops its header off the
// tail. This is functionally identical to the classic prepend-a-header
// discipline but keeps every operation O(header) instead of O(message) —
// and because popping only shrinks the payload's logical view, the receive
// path of an N-way multicast strips headers from one shared buffer with
// zero copies.
//
// Header callbacks are taken by FunctionRef: the callee invokes them before
// returning, so no ownership (and no std::function allocation) is needed,
// and the per-layer fill/read lambdas inline into the push/pop bodies.
//
// Routing intent (group multicast vs. point-to-point) travels alongside the
// bytes; only the bottom of the stack interprets it. On the receive path
// `wire_src` records which node the enclosing packet physically came from —
// simulator ground truth, usable for routing replies but not for
// authenticated identity (that is the integrity layer's job).
#pragma once

#include <optional>

#include "net/node_id.hpp"
#include "util/bytes.hpp"
#include "util/function_ref.hpp"
#include "util/payload.hpp"

namespace msw {

struct Message {
  Payload data;

  /// When set, the bottom layer unicasts to this node instead of
  /// multicasting to the group.
  std::optional<NodeId> point_to;

  /// Receive path only: the node the packet physically arrived from.
  NodeId wire_src{};

  static Message group(Payload payload);
  static Message p2p(NodeId to, Payload payload);

  bool is_p2p() const { return point_to.has_value(); }
  std::size_t size() const { return data.size(); }

  /// Append a header: `fill` writes the header fields; a u32 length word is
  /// appended after them so pop_header can find the boundary. If the
  /// payload buffer is shared, this is the one place the send path pays a
  /// copy (copy-on-write).
  void push_header(FunctionRef<void(Writer&)> fill);

  /// Pop the tail header: `read` receives a Reader scoped to exactly the
  /// header bytes and must consume all of them. Throws DecodeError on a
  /// malformed buffer. Never copies and never mutates a shared buffer —
  /// the consumed header is discarded by shrinking the logical view.
  void pop_header(FunctionRef<void(Reader&)> read);
};

/// The header the Stack itself pushes at the application boundary. It gives
/// every application message a global identity (origin, per-origin sequence
/// number) and marks view-change notifications synthesized by membership
/// layers. The format is public so that layers (e.g. vsync) can deliver
/// synthetic app-level messages.
struct AppHeader {
  enum class Kind : std::uint8_t { kData = 0, kView = 1 };

  Kind kind = Kind::kData;
  std::uint32_t sender = 0;
  std::uint64_t seq = 0;

  static void push(Message& m, const AppHeader& h);
  static AppHeader pop(Message& m);
};

}  // namespace msw
