#include "report.hpp"

#include <algorithm>
#include <string>

namespace pb {

void add_counters(LayerInputs& in, const TracedLayers& layers) {
  for (std::size_t i = 0; i < layers.sp.size(); ++i) {
    if (const msw::SwitchLayer* sp = layers.sp[i]) {
      const msw::SwitchLayer::Stats& s = sp->stats();
      in.switches = std::max(in.switches, s.switches_completed);
      in.max_buffered = std::max(in.max_buffered, s.max_buffered);
      in.sp_token_retx += s.token_retransmissions;
      // An initiator's durations, recovered from its order statistics.
      const std::size_t c = s.switch_durations.count();
      for (std::size_t k = 1; k <= c; ++k) {
        in.switch_duration_ms.push_back(s.switch_durations.percentile_nearest(
            100.0 * (static_cast<double>(k) - 0.5) / static_cast<double>(c)));
      }
    }
    if (const msw::SequencerLayer* seq = layers.seq[i]) {
      in.seq_gap_nacks += seq->stats().gap_nacks_sent;
      in.seq_retx += seq->stats().history_retransmissions;
      in.seq_request_retx += seq->stats().requests_retransmitted;
    }
    if (const msw::TokenLayer* tok = layers.tok[i]) {
      in.token_visits += tok->stats().token_visits;
      in.token_retx += tok->stats().token_retransmissions;
    }
    if (const msw::ReliableLayer* rel = layers.rel[i]) {
      const msw::ReliableLayer::Stats s = rel->stats();
      in.rel_nacks += s.nacks_sent;
      in.rel_retx += s.retransmissions;
      in.rel_dups += s.duplicates_dropped;
    }
  }
}

std::vector<Metric> layer_metrics(LayerInputs& in) {
  std::vector<Metric> out;
  const double msgs = in.multicasts > 0 ? static_cast<double>(in.multicasts) : 1.0;
  const auto per_msg = [msgs](double v) { return v / msgs; };
  const auto add = [&out](std::string name, double v, const char* unit) {
    out.push_back(Metric{std::move(name), v, unit});
  };

  const LayerId billed[] = {LayerId::kSwitch, LayerId::kSequencer, LayerId::kToken,
                            LayerId::kReliable, LayerId::kFifo, LayerId::kMedium};
  for (const LayerId l : billed) {
    const auto i = static_cast<std::size_t>(l);
    const std::string name = layer_name(l);
    add(name + ".down.self_ns", per_msg(static_cast<double>(in.bill.self_ns[i][0])), "ns");
    add(name + ".down.calls", per_msg(static_cast<double>(in.bill.calls[i][0])), "1/msg");
    if (l == LayerId::kMedium) continue;  // the receive side of the medium is not probed
    add(name + ".up.self_ns", per_msg(static_cast<double>(in.bill.self_ns[i][1])), "ns");
    add(name + ".up.calls", per_msg(static_cast<double>(in.bill.calls[i][1])), "1/msg");
  }
  for (const LayerId l : billed) {
    if (l == LayerId::kMedium) continue;
    auto& h = in.holds[static_cast<std::size_t>(l)];
    const std::string name = layer_name(l);
    add(name + ".hold_us.p50", quantile(h, 0.50), "us");
    add(name + ".hold_us.p99", quantile(h, 0.99), "us");
  }
  add("stack.send_ns",
      in.bill.stack_sends > 0
          ? static_cast<double>(in.bill.stack_send_ns) / static_cast<double>(in.bill.stack_sends)
          : 0.0,
      "ns");

  add("switch.idle_token_hops_per_s", in.idle_token_hops_per_s, "1/s");
  add("switch.token_hops_per_s", in.token_hops_per_s, "1/s");
  add("switch.duration_ms.p50", quantile(in.switch_duration_ms, 0.5), "ms");
  add("switch.install_ms.p50", quantile(in.switch_install_ms, 0.5), "ms");
  add("switch.switches", static_cast<double>(in.switches), "count");
  add("switch.max_buffered", static_cast<double>(in.max_buffered), "count");
  add("switch.token_retx", static_cast<double>(in.sp_token_retx), "count");

  add("oracle.consults", static_cast<double>(in.oracle.consults), "count");
  add("oracle.consult_ns",
      in.oracle.consults > 0
          ? static_cast<double>(in.oracle.ns) / static_cast<double>(in.oracle.consults)
          : 0.0,
      "ns");
  add("oracle.switch_decisions", static_cast<double>(in.oracle.decisions), "count");

  add("sequencer.gap_nacks", static_cast<double>(in.seq_gap_nacks), "count");
  add("sequencer.retx", static_cast<double>(in.seq_retx), "count");
  add("sequencer.request_retx", static_cast<double>(in.seq_request_retx), "count");
  add("token.visits_per_msg", per_msg(static_cast<double>(in.token_visits)), "1/msg");
  add("token.retx", static_cast<double>(in.token_retx), "count");
  add("reliable.nacks", static_cast<double>(in.rel_nacks), "count");
  add("reliable.retx", static_cast<double>(in.rel_retx), "count");
  add("reliable.dups", static_cast<double>(in.rel_dups), "count");

  add("rt.inbox_wait_us.p50", quantile(in.inbox_wait_us, 0.50), "us");
  add("rt.inbox_wait_us.p99", quantile(in.inbox_wait_us, 0.99), "us");
  add("rt.transit_us.p50", quantile(in.transit_us, 0.50), "us");
  add("rt.transit_us.p99", quantile(in.transit_us, 0.99), "us");
  add("rt.packets_per_msg", per_msg(static_cast<double>(in.rt_packets)), "1/msg");
  add("rt.drops", static_cast<double>(in.rt_drops), "count");
  add("rt.tasks_per_msg", per_msg(static_cast<double>(in.rt_tasks)), "1/msg");
  add("rt.wakeups_per_s", in.rt_wakeups_per_s, "1/s");
  add("rt.shard_busy", in.rt_shard_busy, "cores");

  add("sim.events_per_msg", per_msg(static_cast<double>(in.sim_events)), "1/msg");
  add("net.packets_per_msg", per_msg(static_cast<double>(in.net_packets)), "1/msg");
  add("net.bytes_per_msg", per_msg(static_cast<double>(in.net_bytes)), "B/msg");
  return out;
}

}  // namespace pb
