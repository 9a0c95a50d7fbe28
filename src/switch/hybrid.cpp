#include "switch/hybrid.hpp"

#include "stack/stack.hpp"

namespace msw {

LayerFactory make_sequencer_factory(SequencerConfig cfg) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<SequencerLayer>(cfg));
    return layers;
  };
}

LayerFactory make_token_factory(TokenConfig cfg) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<TokenLayer>(cfg));
    return layers;
  };
}

LayerFactory make_reliable_fifo_factory(ReliableConfig cfg) {
  return [cfg](NodeId, const std::vector<NodeId>&) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<FifoLayer>());
    layers.push_back(std::make_unique<ReliableLayer>(cfg));
    return layers;
  };
}

LayerFactory make_switch_factory(LayerFactory proto_a, LayerFactory proto_b,
                                 OracleFactory oracle, SwitchConfig cfg) {
  return [proto_a = std::move(proto_a), proto_b = std::move(proto_b),
          oracle = std::move(oracle), cfg](NodeId self, const std::vector<NodeId>& members) {
    std::unique_ptr<Oracle> o =
        oracle ? oracle(self) : std::make_unique<ManualOracle>();
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<SwitchLayer>(proto_a(self, members),
                                                   proto_b(self, members), std::move(o), cfg));
    return layers;
  };
}

LayerFactory make_hybrid_total_order_factory(HybridConfig cfg) {
  return make_switch_factory(make_sequencer_factory(cfg.sequencer),
                             make_token_factory(cfg.token), cfg.oracle, cfg.sp);
}

OracleFactory make_policy_oracle_factory(PolicyConfig cfg) {
  return [cfg](NodeId) { return std::make_unique<PolicyOracle>(cfg); };
}

LayerFactory make_adaptive_hybrid_factory(HybridConfig cfg, PolicyConfig policy) {
  cfg.oracle = make_policy_oracle_factory(policy);
  return make_hybrid_total_order_factory(cfg);
}

SwitchLayer& switch_layer_of(Stack& stack) {
  return static_cast<SwitchLayer&>(stack.chain().layer(0));
}

}  // namespace msw
