// Stack factories for the paper's experiments.
//
// A LayerFactory builds one process's stack; Group applies it uniformly.
// The hybrid factory composes the paper's section-7 system: the switching
// protocol over the sequencer-based and token-based total-order protocols,
// driven by a pluggable oracle — "the best of both worlds" at every load.
#pragma once

#include "proto/fifo_layer.hpp"
#include "proto/reliable_layer.hpp"
#include "proto/sequencer_layer.hpp"
#include "proto/token_layer.hpp"
#include "stack/layer.hpp"
#include "switch/oracle.hpp"
#include "switch/policy/policy_oracle.hpp"
#include "switch/switch_layer.hpp"

namespace msw {

/// Plain sequencer total order.
LayerFactory make_sequencer_factory(SequencerConfig cfg = {});

/// Plain token-ring total order.
LayerFactory make_token_factory(TokenConfig cfg = {});

/// Reliable FIFO multicast (no total order): FifoLayer over ReliableLayer.
LayerFactory make_reliable_fifo_factory(ReliableConfig cfg = {});

struct HybridConfig {
  SequencerConfig sequencer;
  TokenConfig token;
  SwitchConfig sp;
  /// Per-member oracle; defaults to ManualOracle (switch on request only).
  OracleFactory oracle;
};

/// The switching protocol over {sequencer, token} total order.
/// Protocol 0 (initially active) is the sequencer; protocol 1 the token.
LayerFactory make_hybrid_total_order_factory(HybridConfig cfg = {});

/// Per-member PolicyOracle factory: every node runs its own adaptive
/// policy engine over its own signal plane.
OracleFactory make_policy_oracle_factory(PolicyConfig cfg = {});

/// The hybrid total-order stack driven by the adaptive PolicyOracle —
/// make_hybrid_total_order_factory with the policy engine plugged in.
LayerFactory make_adaptive_hybrid_factory(HybridConfig cfg = {}, PolicyConfig policy = {});

/// The switching protocol over two arbitrary sub-protocol factories.
/// Each sub-factory builds the (top-first) layer list of one underlying
/// protocol for the given process.
LayerFactory make_switch_factory(LayerFactory proto_a, LayerFactory proto_b,
                                 OracleFactory oracle = {}, SwitchConfig cfg = {});

/// The SwitchLayer of member-stack built by a switch/hybrid factory (it is
/// the topmost layer). Convenience for tests and benches.
SwitchLayer& switch_layer_of(class Stack& stack);

}  // namespace msw
