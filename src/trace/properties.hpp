// The eight communication properties of Table 1, as executable predicates
// on traces.
//
// Each formalization is chosen to match the paper's one-line description
// and its meta-property classification (Table 2); where the paper's prose
// leaves slack, EXPERIMENTS.md records the choice made. None of these
// predicates may depend on event timestamps — only on event order and
// content, as in the paper's system model (section 3).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace msw {

class Property {
 public:
  virtual ~Property() = default;
  virtual std::string_view name() const = 0;
  virtual bool holds(const Trace& tr) const = 0;
};

/// "Every message that is sent is delivered to all receivers": for every
/// Send there is a Deliver at every process of the given group.
class ReliabilityProperty : public Property {
 public:
  explicit ReliabilityProperty(std::vector<std::uint32_t> group) : group_(std::move(group)) {}
  std::string_view name() const override { return "Reliability"; }
  bool holds(const Trace& tr) const override;

 private:
  std::vector<std::uint32_t> group_;
};

/// "Processes that deliver the same two messages deliver them in the same
/// order."
class TotalOrderProperty : public Property {
 public:
  std::string_view name() const override { return "Total Order"; }
  bool holds(const Trace& tr) const override;
};

/// "Messages cannot be forged; they are sent by trusted processes": every
/// Deliver event carries a trusted sender.
class IntegrityProperty : public Property {
 public:
  explicit IntegrityProperty(std::set<std::uint32_t> trusted) : trusted_(std::move(trusted)) {}
  std::string_view name() const override { return "Integrity"; }
  bool holds(const Trace& tr) const override;

 private:
  std::set<std::uint32_t> trusted_;
};

/// "Non-trusted processes cannot see messages from trusted processes": a
/// message from a trusted sender is delivered only at trusted processes.
class ConfidentialityProperty : public Property {
 public:
  explicit ConfidentialityProperty(std::set<std::uint32_t> trusted)
      : trusted_(std::move(trusted)) {}
  std::string_view name() const override { return "Confidentiality"; }
  bool holds(const Trace& tr) const override;

 private:
  std::set<std::uint32_t> trusted_;
};

/// "A message body can be delivered at most once to a process": no process
/// delivers two messages with the same body. (Messages with empty bodies
/// are keyed by message id instead, so id-only traces are not all
/// vacuously replays of each other.)
class NoReplayProperty : public Property {
 public:
  std::string_view name() const override { return "No Replay"; }
  bool holds(const Trace& tr) const override;
};

/// "The master process always delivers a message before anyone else."
class PrioritizedDeliveryProperty : public Property {
 public:
  explicit PrioritizedDeliveryProperty(std::uint32_t master) : master_(master) {}
  std::string_view name() const override { return "Prioritized Delivery"; }
  bool holds(const Trace& tr) const override;

 private:
  std::uint32_t master_;
};

/// "A process is blocked from sending while it is awaiting its own
/// messages": between two consecutive Sends by a process there is a
/// Deliver, at that process, of the earlier message.
class AmoebaProperty : public Property {
 public:
  std::string_view name() const override { return "Amoeba"; }
  bool holds(const Trace& tr) const override;
};

/// "A process only delivers messages from processes in some common view":
/// view notifications (MsgId::Kind::kView) partition each process's
/// deliveries into epochs; any two processes that deliver the same two
/// view notifications consecutively deliver the same set of data messages
/// between them.
class VirtualSynchronyProperty : public Property {
 public:
  std::string_view name() const override { return "Virtual Synchrony"; }
  bool holds(const Trace& tr) const override;
};

/// EXTENSION (not in the paper's Table 1): causal order. Send(m1) causally
/// precedes Send(m2) when the same process sent both in that order, or
/// m2's sender delivered m1 before sending m2 (transitively closed). The
/// property: every process that delivers both delivers m1 before m2.
/// The meta-property checker classifies it as NOT Delayable — delaying a
/// delivery past a send manufactures causality — so it sits outside the
/// paper's switch-safe class; yet, like Reliability, the concrete SP
/// preserves it operationally (all old-protocol messages drain before any
/// new-protocol delivery, so cross-switch causality cannot invert).
class CausalOrderProperty : public Property {
 public:
  std::string_view name() const override { return "Causal Order"; }
  bool holds(const Trace& tr) const override;
};

/// The Table 1 catalogue with standard parameters: group/trusted = all of
/// 0..n_procs-1, master = 0. Order matches the paper's Table 2 rows.
std::vector<std::unique_ptr<Property>> standard_properties(std::uint32_t n_procs);

}  // namespace msw
