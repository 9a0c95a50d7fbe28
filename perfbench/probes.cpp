#include "probes.hpp"

#include <cstdio>
#include <fstream>

namespace pb {

namespace {
// Sampled span records kept in memory for the dump written at exit.
constexpr std::size_t kMaxSpanRecords = 200'000;

std::size_t idx(LayerId l) { return static_cast<std::size_t>(l); }
std::size_t idx(Dir d) { return static_cast<std::size_t>(d); }
}  // namespace

const char* layer_name(LayerId l) {
  switch (l) {
    case LayerId::kSwitch: return "switch";
    case LayerId::kSequencer: return "sequencer";
    case LayerId::kToken: return "token";
    case LayerId::kReliable: return "reliable";
    case LayerId::kFifo: return "fifo";
    case LayerId::kMedium: return "medium";
    case LayerId::kOracle: return "oracle";
    case LayerId::kApp: return "app";
    case LayerId::kCount: break;
  }
  return "?";
}

Recorder::Recorder(std::size_t members, std::vector<LayerId> layers, std::uint64_t sample_every)
    : members_(members), layers_(std::move(layers)), sample_every_(sample_every), t0_ns_(wall_ns()) {
  stack_.reserve(32);
}

void Recorder::enter(LayerId l, Dir d, std::uint64_t msg) {
  stack_.push_back(Frame{l, d, wall_ns(), 0, msg});
}

void Recorder::leave() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = wall_ns() - f.start;
  const std::int64_t self = dur - f.child;
  bill_.self_ns[idx(f.layer)][idx(f.dir)] += static_cast<std::uint64_t>(self > 0 ? self : 0);
  ++bill_.calls[idx(f.layer)][idx(f.dir)];
  if (!stack_.empty()) stack_.back().child += dur;
  if (f.msg != kNoMsg && sampled(f.msg) && spans_.size() < kMaxSpanRecords) {
    spans_.push_back(SpanRec{f.msg, f.layer, f.dir, static_cast<std::uint8_t>(stack_.size()),
                             f.start - t0_ns_, dur, self});
  }
}

std::uint64_t Recorder::cross(std::uint32_t node, LayerId from, LayerId to, Dir d,
                              const msw::Message& m, msw::Time now) {
  Body body;
  if (!Body::decode(m.data.view(), body)) return kNoMsg;
  if (sampled(body.id)) track(node, from, to, d, body.id, now);
  return body.id;
}

void Recorder::root_send(std::uint32_t node, LayerId top, std::uint64_t msg, msw::Time now) {
  if (sampled(msg)) track(node, LayerId::kApp, top, Dir::kDown, msg, now);
}

void Recorder::app_deliver(std::uint32_t node, LayerId top, std::uint64_t msg, msw::Time now) {
  if (!sampled(msg)) return;
  track(node, top, LayerId::kApp, Dir::kUp, msg, now);
  Sampled& s = live_[msg];
  for (const LayerId l : layers_) {
    double us = s.down_us[idx(l)];
    for (const UpSum& u : s.up) {
      if (u.node == node && u.layer == l) us += u.us;
    }
    holds_[idx(l)].push_back(us);
  }
  if (++s.delivered == members_) live_.erase(msg);
}

void Recorder::track(std::uint32_t node, LayerId from, LayerId to, Dir d, std::uint64_t msg,
                     msw::Time now) {
  Sampled& s = live_[msg];
  for (std::size_t i = 0; i < s.open.size(); ++i) {
    const Open& o = s.open[i];
    if (o.node != node || o.layer != from) continue;
    // Leaving downward is on the path to every member (the sender's queue,
    // the sequencer's ordering); leaving upward is this member's own wait.
    const auto us = static_cast<double>(now - o.at);
    if (d == Dir::kDown) {
      s.down_us[idx(from)] += us;
    } else {
      bool found = false;
      for (UpSum& u : s.up) {
        if (u.node == node && u.layer == from) {
          u.us += us;
          found = true;
        }
      }
      if (!found) s.up.push_back(UpSum{node, from, us});
    }
    s.open.erase(s.open.begin() + static_cast<std::ptrdiff_t>(i));
    break;
  }
  if (to != LayerId::kApp && to != LayerId::kMedium) {
    bool found = false;
    for (Open& o : s.open) {
      if (o.node == node && o.layer == to) {
        o.at = now;  // re-entry (a retransmitted or looped-back copy): keep the latest
        found = true;
      }
    }
    if (!found) s.open.push_back(Open{node, to, now});
  }
  if (to == LayerId::kMedium && d == Dir::kDown) s.left_bottom_ns = wall_ns();
  if (from == LayerId::kMedium && d == Dir::kUp && s.left_bottom_ns != 0) {
    transit_us_.push_back(static_cast<double>(wall_ns() - s.left_bottom_ns) / 1000.0);
  }
}

Recorder::Bill Recorder::bill() const {
  Bill b = bill_;
  b.stack_send_ns = stack_send_ns_;
  b.stack_sends = stack_sends_;
  return b;
}

Recorder::Bill Recorder::diff(const Bill& a, const Bill& b) {
  Bill out;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    for (std::size_t d = 0; d < 2; ++d) {
      out.self_ns[l][d] = b.self_ns[l][d] - a.self_ns[l][d];
      out.calls[l][d] = b.calls[l][d] - a.calls[l][d];
    }
  }
  out.stack_send_ns = b.stack_send_ns - a.stack_send_ns;
  out.stack_sends = b.stack_sends - a.stack_sends;
  return out;
}

bool Recorder::write_spans(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  char line[256];
  for (const SpanRec& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"msg\":%llu,\"layer\":\"%s\",\"dir\":\"%s\",\"depth\":%u,"
                  "\"start_ns\":%lld,\"dur_ns\":%lld,\"self_ns\":%lld}\n",
                  static_cast<unsigned long long>(s.msg), layer_name(s.layer),
                  s.dir == Dir::kDown ? "down" : "up", static_cast<unsigned>(s.depth),
                  static_cast<long long>(s.start_ns), static_cast<long long>(s.dur_ns),
                  static_cast<long long>(s.self_ns));
    os << line;
  }
  return static_cast<bool>(os);
}

void ProbeLayer::down(msw::Message m) {
  const std::uint64_t msg = rec_.cross(node_, above_, below_, Dir::kDown, m, ctx().now());
  Recorder::Span s(rec_, below_, Dir::kDown, msg);
  ctx().send_down(std::move(m));
}

void ProbeLayer::up(msw::Message m) {
  const std::uint64_t msg = rec_.cross(node_, below_, above_, Dir::kUp, m, ctx().now());
  Recorder::Span s(rec_, above_, Dir::kUp, msg);
  ctx().deliver_up(std::move(m));
}

void ProbeLayer::down_batch(msw::MessageBatch b) {
  std::uint64_t first = Recorder::kNoMsg;
  const msw::Time now = ctx().now();
  for (const msw::Message& m : b) {
    const std::uint64_t msg = rec_.cross(node_, above_, below_, Dir::kDown, m, now);
    if (first == Recorder::kNoMsg) first = msg;
  }
  Recorder::Span s(rec_, below_, Dir::kDown, first);
  ctx().send_down(std::move(b));
}

void ProbeLayer::up_batch(msw::MessageBatch b) {
  std::uint64_t first = Recorder::kNoMsg;
  const msw::Time now = ctx().now();
  for (const msw::Message& m : b) {
    const std::uint64_t msg = rec_.cross(node_, below_, above_, Dir::kUp, m, now);
    if (first == Recorder::kNoMsg) first = msg;
  }
  Recorder::Span s(rec_, above_, Dir::kUp, first);
  ctx().deliver_up(std::move(b));
}

bool TimedOracle::should_switch(const msw::OracleView& view) {
  Recorder::Span s(rec_, LayerId::kOracle, Dir::kDown);
  const std::int64_t t0 = wall_ns();
  const bool decision = inner_->should_switch(view);
  counts_.ns += static_cast<std::uint64_t>(wall_ns() - t0);
  ++counts_.consults;
  if (decision) {
    ++counts_.decisions;
    if (on_decision_) on_decision_();
  }
  return decision;
}

msw::LayerFactory traced_hybrid_factory(Recorder& rec, TracedLayers& layers,
                                        const msw::HybridConfig& cfg, TimedOracle::Counts& counts,
                                        std::function<void()> on_decision) {
  using Layers = std::vector<std::unique_ptr<msw::Layer>>;
  // One protocol between two probes, both facing SP.
  const auto wrap = [&rec](std::uint32_t node, LayerId id, std::unique_ptr<msw::Layer> layer) {
    Layers l;
    l.push_back(std::make_unique<ProbeLayer>(rec, node, LayerId::kSwitch, id));
    l.push_back(std::move(layer));
    l.push_back(std::make_unique<ProbeLayer>(rec, node, id, LayerId::kSwitch));
    return l;
  };
  auto seq = [&layers, wrap, c = cfg.sequencer](msw::NodeId self, const std::vector<msw::NodeId>&) {
    auto layer = std::make_unique<msw::SequencerLayer>(c);
    layers.seq[self.v] = layer.get();
    return wrap(self.v, LayerId::kSequencer, std::move(layer));
  };
  auto tok = [&layers, wrap, c = cfg.token](msw::NodeId self, const std::vector<msw::NodeId>&) {
    auto layer = std::make_unique<msw::TokenLayer>(c);
    layers.tok[self.v] = layer.get();
    return wrap(self.v, LayerId::kToken, std::move(layer));
  };
  auto timed = [&rec, &counts, inner = cfg.oracle, on_decision](msw::NodeId self) {
    std::unique_ptr<msw::Oracle> o = inner ? inner(self) : std::make_unique<msw::ManualOracle>();
    return std::make_unique<TimedOracle>(std::move(o), rec, counts, on_decision);
  };
  auto sp = msw::make_switch_factory(seq, tok, timed, cfg.sp);
  return [&rec, sp](msw::NodeId self, const std::vector<msw::NodeId>& members) {
    Layers l = sp(self, members);
    l.push_back(std::make_unique<ProbeLayer>(rec, self.v, LayerId::kSwitch, LayerId::kMedium));
    return l;
  };
}

msw::LayerFactory traced_fifo_factory(Recorder& rec, TracedLayers& layers) {
  return [&rec, &layers](msw::NodeId self, const std::vector<msw::NodeId>&) {
    auto rel = std::make_unique<msw::ReliableLayer>();
    layers.rel[self.v] = rel.get();
    std::vector<std::unique_ptr<msw::Layer>> l;
    l.push_back(std::make_unique<msw::FifoLayer>());
    l.push_back(std::make_unique<ProbeLayer>(rec, self.v, LayerId::kFifo, LayerId::kReliable));
    l.push_back(std::move(rel));
    l.push_back(std::make_unique<ProbeLayer>(rec, self.v, LayerId::kReliable, LayerId::kMedium));
    return l;
  };
}

}  // namespace pb
