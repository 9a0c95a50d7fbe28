// Time-based pacing of a perpetually circulating token.
//
// Two rings in this code base keep a token going round forever: SP's
// NORMAL token (switch/switch_layer), so that any member can start a
// switch, and the token-ring total order's ordering token
// (proto/token_layer). Passed on with zero hold, an idle ring turns as fast
// as the medium carries it — on threads that is one core, spent on nothing.
//
// Both rings follow one rule: a member forwards a token that carries no
// work no sooner than `period` after it last forwarded that ring's token.
// It holds such a token on a timer and looks at it again when the hold
// ends, so work that arrives meanwhile (a switch request, queued messages)
// leaves on the token then. A token that carries work is never held. Each
// member thus forwards an idle ring's token at most once per period, and
// an idle ring of any size turns about once per period.
//
// The rule holds only while `last_forward + period > now`. A ring that
// already takes at least one period per rotation is never held: on the
// simulator every ring of >= 2 members on hops of >= 1 ms turns in
// >= 2 ms, the default period, so pacing is invisible there. A group of
// one is paced (its token only crosses the loopback).
#pragma once

#include <algorithm>
#include <limits>

#include "sim/time.hpp"

namespace msw {

/// Default pacing period of both token rings.
inline constexpr Duration kTokenPacePeriod = 2 * kMillisecond;

/// Handoff retransmission interval of both token rings: a member resends
/// the token it forwarded until its successor acks it, once per interval.
inline constexpr Duration kTokenHandoffRto = 15 * kMillisecond;

/// A timestamp older than any period: "never happened".
inline constexpr Time kLongAgo = std::numeric_limits<Time>::min() / 2;

/// How long a member holds a token that carries no work at `now`, when it
/// last forwarded that ring's token at `last_forward`: what is left of
/// `period`, or 0.
constexpr Duration pacing_hold(Time last_forward, Time now, Duration period) {
  return std::max<Duration>(0, last_forward + period - now);
}

}  // namespace msw
