#include "stack/layer.hpp"

#include <cassert>

namespace msw {

std::size_t LayerContext::self_index() const {
  const auto& m = members();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i] == self()) return i;
  }
  assert(false && "self not in member list");
  return 0;
}

NodeId LayerContext::ring_successor() const {
  const auto& m = members();
  return m[(self_index() + 1) % m.size()];
}

LayerChain::LayerChain(Services& services, std::vector<std::unique_ptr<Layer>> layers,
                       Route to_network, Route to_app)
    : layers_(std::move(layers)),
      network_end_(std::move(to_network)),
      app_end_(std::move(to_app)),
      top_(layers_.empty() ? static_cast<Layer*>(&network_end_) : layers_.front().get()),
      bottom_(layers_.empty() ? static_cast<Layer*>(&app_end_) : layers_.back().get()) {
  // Down from layer i goes to layer i+1 (or out the bottom); up from layer
  // i goes to layer i-1 (or out the top). Raw pointers into layers_ are
  // stable: the vector is never resized after construction.
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer* below = i + 1 < layers_.size() ? layers_[i + 1].get() : &network_end_;
    Layer* above = i > 0 ? layers_[i - 1].get() : &app_end_;
    layers_[i]->bind(LayerContext(&services, below, above));
  }
}

void LayerChain::start() {
  for (auto& l : layers_) l->start();
}

}  // namespace msw
