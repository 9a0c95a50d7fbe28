// The three benchmark workloads and the helpers they share.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "checker.hpp"
#include "common.hpp"

namespace pb {

/// sim-paper: the paper's section-7 experiment on the simulator.
RunResult run_sim_paper(const Options& o);
/// loopback-hybrid: SP over {sequencer, token} on threads, open loop.
RunResult run_loopback_hybrid(const Options& o);
/// udp-fifo: reliable FIFO at n=32 over UDP sockets, closed loop.
RunResult run_udp_fifo(const Options& o);

/// Times each SP switch from its start (a request_switch() call or an
/// oracle decision) until every member has delivered its first message of
/// the new epoch. Starts and completions pair in order: with one
/// outstanding request per initiator, switches install in request order.
class SwitchWatch {
 public:
  explicit SwitchWatch(std::size_t members) : last_(members, 0) {}

  void started(double t) { starts_.push_back(t); }
  /// Epoch tap of `member` at time `t` (any unit; samples keep it).
  void on_epoch(std::size_t member, std::uint64_t epoch, double t) {
    if (epoch <= last_[member]) return;
    last_[member] = epoch;
    if (++seen_[epoch] != last_.size()) return;
    ++installed_;
    if (!starts_.empty()) {
      samples_.push_back(t - starts_.front());
      starts_.pop_front();
    }
  }
  std::uint64_t installed() const { return installed_; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<std::uint64_t> last_;
  std::map<std::uint64_t, std::size_t> seen_;
  std::deque<double> starts_;
  std::vector<double> samples_;
  std::uint64_t installed_ = 0;
};

}  // namespace pb
