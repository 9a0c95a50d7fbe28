#include "trace/properties.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

namespace msw {
namespace {

/// First-occurrence delivery position of each message at each process.
std::map<std::uint32_t, std::map<MsgId, std::size_t>> deliver_positions(const Trace& tr) {
  std::map<std::uint32_t, std::map<MsgId, std::size_t>> pos;
  std::map<std::uint32_t, std::size_t> counter;
  for (const auto& e : tr) {
    if (!e.is_deliver()) continue;
    auto& per_proc = pos[e.process];
    const std::size_t rank = counter[e.process]++;
    per_proc.emplace(e.msg, rank);  // keep first occurrence
  }
  return pos;
}

}  // namespace

bool ReliabilityProperty::holds(const Trace& tr) const {
  for (const auto& e : tr) {
    if (!e.is_send()) continue;
    for (std::uint32_t p : group_) {
      const bool delivered = std::any_of(tr.begin(), tr.end(), [&](const TraceEvent& d) {
        return d.is_deliver() && d.process == p && d.msg == e.msg;
      });
      if (!delivered) return false;
    }
  }
  return true;
}

bool TotalOrderProperty::holds(const Trace& tr) const {
  const auto pos = deliver_positions(tr);
  // For every pair of processes and every pair of messages both deliver,
  // the relative orders must agree.
  for (auto p = pos.begin(); p != pos.end(); ++p) {
    for (auto q = std::next(p); q != pos.end(); ++q) {
      const auto& dp = p->second;
      const auto& dq = q->second;
      for (auto m1 = dp.begin(); m1 != dp.end(); ++m1) {
        const auto q1 = dq.find(m1->first);
        if (q1 == dq.end()) continue;
        for (auto m2 = std::next(m1); m2 != dp.end(); ++m2) {
          const auto q2 = dq.find(m2->first);
          if (q2 == dq.end()) continue;
          const bool p_order = m1->second < m2->second;
          const bool q_order = q1->second < q2->second;
          if (p_order != q_order) return false;
        }
      }
    }
  }
  return true;
}

bool IntegrityProperty::holds(const Trace& tr) const {
  for (const auto& e : tr) {
    if (e.is_deliver() && trusted_.count(e.msg.sender) == 0) return false;
  }
  return true;
}

bool ConfidentialityProperty::holds(const Trace& tr) const {
  for (const auto& e : tr) {
    if (e.is_deliver() && trusted_.count(e.msg.sender) > 0 && trusted_.count(e.process) == 0) {
      return false;
    }
  }
  return true;
}

bool NoReplayProperty::holds(const Trace& tr) const {
  // Per process: the set of delivered body keys must have no duplicates.
  std::map<std::uint32_t, std::set<Bytes>> seen_bodies;
  std::map<std::uint32_t, std::set<MsgId>> seen_ids;
  for (const auto& e : tr) {
    if (!e.is_deliver()) continue;
    if (e.body.empty()) {
      if (!seen_ids[e.process].insert(e.msg).second) return false;
    } else {
      if (!seen_bodies[e.process].insert(e.body).second) return false;
    }
  }
  return true;
}

bool PrioritizedDeliveryProperty::holds(const Trace& tr) const {
  std::set<MsgId> master_delivered;
  for (const auto& e : tr) {
    if (!e.is_deliver()) continue;
    if (e.process == master_) {
      master_delivered.insert(e.msg);
    } else if (master_delivered.count(e.msg) == 0) {
      return false;
    }
  }
  return true;
}

bool AmoebaProperty::holds(const Trace& tr) const {
  // Per process: walk events; after a Send, the next Send by the same
  // process is legal only once the earlier message has been delivered
  // back to that process.
  std::map<std::uint32_t, MsgId> awaiting;        // process -> outstanding msg
  std::map<std::uint32_t, bool> has_outstanding;  // process -> blocked?
  for (const auto& e : tr) {
    if (e.is_send()) {
      auto& blocked = has_outstanding[e.process];
      if (blocked) return false;  // sent while awaiting its own message
      blocked = true;
      awaiting[e.process] = e.msg;
    } else {
      auto it = has_outstanding.find(e.process);
      if (it != has_outstanding.end() && it->second && awaiting[e.process] == e.msg) {
        it->second = false;
      }
    }
  }
  return true;
}

bool VirtualSynchronyProperty::holds(const Trace& tr) const {
  // Per process: the sequence of view markers delivered, and the set of
  // data messages delivered between consecutive markers.
  struct Epochs {
    std::vector<MsgId> views;                  // markers in delivery order
    std::vector<std::set<MsgId>> between;      // between[i]: after views[i],
                                               // before views[i+1]
    std::set<MsgId> current;
  };
  std::map<std::uint32_t, Epochs> per_proc;
  for (const auto& e : tr) {
    if (!e.is_deliver()) continue;
    auto& ep = per_proc[e.process];
    if (e.is_view_marker()) {
      if (!ep.views.empty()) ep.between.push_back(ep.current);
      ep.current.clear();
      ep.views.push_back(e.msg);
    } else if (!ep.views.empty()) {
      ep.current.insert(e.msg);
    }
    // Data delivered before any view marker is unconstrained (no common
    // epoch to compare).
  }
  // Compare all pairs of processes on common consecutive view pairs.
  for (auto p = per_proc.begin(); p != per_proc.end(); ++p) {
    for (auto q = std::next(p); q != per_proc.end(); ++q) {
      const auto& ep = p->second;
      const auto& eq = q->second;
      for (std::size_t i = 0; i + 1 < ep.views.size(); ++i) {
        for (std::size_t j = 0; j + 1 < eq.views.size(); ++j) {
          if (ep.views[i] == eq.views[j] && ep.views[i + 1] == eq.views[j + 1]) {
            if (ep.between[i] != eq.between[j]) return false;
          }
        }
      }
    }
  }
  return true;
}

bool CausalOrderProperty::holds(const Trace& tr) const {
  // Direct causal predecessors of each sent message: everything in the
  // sender's context (its earlier sends and deliveries) at send time.
  std::map<MsgId, std::vector<MsgId>> direct;
  std::map<std::uint32_t, std::vector<MsgId>> context;
  for (const auto& e : tr) {
    if (e.is_send()) {
      direct[e.msg] = context[e.process];
      context[e.process].push_back(e.msg);
    } else {
      context[e.process].push_back(e.msg);
    }
  }
  // Transitive closure, memoized: ancestors(m) = direct(m) ∪ their
  // ancestors. Needed because a process may deliver m1 and m3 with the
  // intermediate m2 of the chain m1 -> m2 -> m3 never delivered there.
  std::map<MsgId, std::set<MsgId>> ancestors;
  std::function<const std::set<MsgId>&(const MsgId&)> closure =
      [&](const MsgId& m) -> const std::set<MsgId>& {
    auto it = ancestors.find(m);
    if (it != ancestors.end()) return it->second;
    auto& anc = ancestors[m];  // inserted empty first: cycles impossible in
                               // well-formed traces, this guards regardless
    const auto d = direct.find(m);
    if (d != direct.end()) {
      for (const MsgId& p : d->second) {
        anc.insert(p);
        const auto& deeper = closure(p);
        anc.insert(deeper.begin(), deeper.end());
      }
    }
    return ancestors[m];
  };

  const auto pos = deliver_positions(tr);
  for (const auto& [proc, delivered] : pos) {
    for (const auto& [m2, pos2] : delivered) {
      for (const MsgId& m1 : closure(m2)) {
        const auto it1 = delivered.find(m1);
        // Only delivered pairs are order-constrained (the ordering reading
        // of causal order; completeness is Reliability's business).
        if (it1 != delivered.end() && it1->second > pos2) return false;
      }
    }
  }
  return true;
}

std::vector<std::unique_ptr<Property>> standard_properties(std::uint32_t n_procs) {
  std::vector<std::uint32_t> group(n_procs);
  std::iota(group.begin(), group.end(), 0);
  std::set<std::uint32_t> trusted(group.begin(), group.end());

  std::vector<std::unique_ptr<Property>> props;
  props.push_back(std::make_unique<TotalOrderProperty>());
  props.push_back(std::make_unique<IntegrityProperty>(trusted));
  props.push_back(std::make_unique<ConfidentialityProperty>(trusted));
  props.push_back(std::make_unique<ReliabilityProperty>(group));
  props.push_back(std::make_unique<PrioritizedDeliveryProperty>(0));
  props.push_back(std::make_unique<AmoebaProperty>(/*master irrelevant*/));
  props.push_back(std::make_unique<VirtualSynchronyProperty>());
  props.push_back(std::make_unique<NoReplayProperty>());
  return props;
}

}  // namespace msw
