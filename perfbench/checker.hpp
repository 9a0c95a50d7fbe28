// The correctness gate every benchmark run passes through.
//
// Fed from the application boundary only (each member's delivery callback
// and, on SP stacks, its epoch tap), it drives the library's streaming
// monitors (src/monitor) and adds what they do not track:
//   - FifoMonitor: each sender's multicasts in send order, no duplicates;
//   - TotalOrderMonitor (total-order stacks): every member's k-th delivery
//     is the same multicast, at every position, and under the same epoch;
//   - EpochMonitor (SP stacks): the epoch stream at each member never
//     decreases;
//   - here: every member delivers every multicast exactly once (counted per
//     benchmark multicast id), and no member delivers anything of a later
//     epoch without having delivered every multicast of the earlier ones
//     (old-before-new completeness).
// A multicast is failed when it is undelivered anywhere, duplicated, or
// involved in any violation. All calls for one run come from one thread at
// a time (the simulator's, or the group's executor shard); the generator
// only reads completed() concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monitor/monitors.hpp"
#include "trace/trace.hpp"

namespace pb {

class Checker {
 public:
  /// `total_order` enables the cross-member order comparison.
  Checker(std::size_t members, bool total_order);

  /// SP epoch tap of `member`: the epoch of the delivery that follows.
  void on_epoch(std::size_t member, std::uint64_t epoch);

  /// Application delivery of multicast `msg_id` (the body's id; ids are
  /// dense from 0) at `member`. Returns true when this delivery was the
  /// multicast's last, i.e. every member has now delivered it.
  bool on_deliver(std::size_t member, const msw::MsgId& id, std::uint64_t msg_id);

  /// Multicasts delivered at every member so far (any thread).
  std::uint64_t completed() const { return completed_.load(std::memory_order_acquire); }

  /// Rolling hash of member 0's delivery order.
  std::uint64_t order_hash() const { return hash_; }

  struct Verdict {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;          // distinct multicasts with any violation
    std::uint64_t undelivered = 0;     // (multicast, member) deliveries missing
    std::uint64_t duplicated = 0;      // extra deliveries
    std::uint64_t fifo = 0;            // FifoMonitor violations
    std::uint64_t order = 0;           // TotalOrderMonitor violations (incl. epoch agreement)
    std::uint64_t epoch = 0;           // EpochMonitor violations (epoch went backwards)
    std::uint64_t old_before_new = 0;  // old-epoch deliveries missing at a member that moved on
    std::string first_violation;       // first monitor report, "" when none
    bool ok() const { return failed == 0; }
    std::string summary() const;
  };
  /// Judge the first `attempted` multicast ids. Call once the group is
  /// quiescent (or its drain deadline has passed).
  Verdict finish(std::uint64_t attempted) const;

 private:
  static constexpr std::uint32_t kNoEpoch = 0xffffffffu;
  // Per-multicast state grows in chunks as ids arrive, so no rate or run
  // length has to be guessed up front; ids past kMaxIds are counted as
  // failures instead of stored.
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::uint64_t kMaxIds = std::uint64_t{1} << 36;
  static constexpr std::size_t kOrderWindow = std::size_t{1} << 20;

  struct Msg {
    std::uint16_t deliveries = 0;
    bool bad = false;
    std::uint32_t epoch = kNoEpoch;  // epoch of the first delivery
  };
  struct Member {
    bool have_epoch = false;
    std::uint64_t pending_epoch = 0;  // from the tap, for the next delivery
    // Deliveries per epoch, one run per epoch in delivery order.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> epoch_runs;
  };

  Msg* msg(std::uint64_t id);
  const Msg* find(std::uint64_t id) const;
  std::uint64_t violations() const;

  std::size_t n_;
  std::vector<std::unique_ptr<Msg[]>> chunks_;
  std::vector<Member> members_;
  msw::ViolationLog fifo_log_, order_log_, epoch_log_;
  msw::FifoMonitor fifo_;
  std::optional<msw::TotalOrderMonitor> order_;
  msw::EpochMonitor epochs_;
  std::uint64_t hash_ = 0;
  std::uint64_t out_of_range_ = 0;
  // Its own cache line: the generator polls it while the shard writes the
  // rest of the checker.
  alignas(64) std::atomic<std::uint64_t> completed_{0};
};

/// Feeds hand-made delivery streams (clean, reordered tail, duplicate,
/// lost, epoch regression) through a Checker and reports whether each
/// verdict is the expected one. Prints one line per case.
bool checker_selftest();

}  // namespace pb
