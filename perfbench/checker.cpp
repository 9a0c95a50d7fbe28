#include "checker.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

namespace pb {

Checker::Checker(std::size_t members, bool total_order)
    : n_(members),
      members_(members),
      fifo_(fifo_log_, members),
      epochs_(epoch_log_, members) {
  if (total_order) order_.emplace(order_log_, members, kOrderWindow, /*check_epoch_consistency=*/true);
}

Checker::Msg* Checker::msg(std::uint64_t id) {
  if (id >= kMaxIds) return nullptr;
  const std::size_t c = static_cast<std::size_t>(id >> kChunkBits);
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  if (!chunks_[c]) chunks_[c] = std::make_unique<Msg[]>(std::size_t{1} << kChunkBits);
  return &chunks_[c][id & ((1u << kChunkBits) - 1)];
}

const Checker::Msg* Checker::find(std::uint64_t id) const {
  const std::size_t c = static_cast<std::size_t>(id >> kChunkBits);
  if (id >= kMaxIds || c >= chunks_.size() || !chunks_[c]) return nullptr;
  return &chunks_[c][id & ((1u << kChunkBits) - 1)];
}

std::uint64_t Checker::violations() const {
  return fifo_log_.total() + order_log_.total() + epoch_log_.total();
}

void Checker::on_epoch(std::size_t member, std::uint64_t epoch) {
  Member& m = members_[member];
  m.have_epoch = true;
  m.pending_epoch = epoch;
}

bool Checker::on_deliver(std::size_t member, const msw::MsgId& id, std::uint64_t msg_id) {
  Member& m = members_[member];
  Msg* msg = id.sender < n_ ? this->msg(msg_id) : nullptr;
  if (msg == nullptr) {
    ++out_of_range_;
    return false;
  }

  msw::DeliverObs d;
  d.node = static_cast<std::uint32_t>(member);
  d.sender = id.sender;
  d.seq = id.seq;
  d.epoch = m.pending_epoch;
  const std::uint64_t before = violations();
  fifo_.on_deliver(d);
  if (order_) order_->on_deliver(d);
  if (m.have_epoch) {
    epochs_.on_deliver(d);
    if (msg->epoch == kNoEpoch) msg->epoch = static_cast<std::uint32_t>(m.pending_epoch);
    if (m.epoch_runs.empty() || m.epoch_runs.back().first != m.pending_epoch) {
      m.epoch_runs.emplace_back(m.pending_epoch, 0);
    }
    ++m.epoch_runs.back().second;
  }
  if (violations() != before) msg->bad = true;

  if (member == 0) hash_ = (hash_ ^ (msg_id + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;

  if (msg->deliveries < 0xffff) ++msg->deliveries;
  if (msg->deliveries == n_) {
    completed_.fetch_add(1, std::memory_order_release);
    return true;
  }
  return false;
}

Checker::Verdict Checker::finish(std::uint64_t attempted) const {
  Verdict v;
  v.attempted = attempted;
  v.fifo = fifo_log_.total();
  v.order = order_log_.total();
  v.epoch = epoch_log_.total();
  for (const msw::ViolationLog* log : {&fifo_log_, &order_log_, &epoch_log_}) {
    if (v.first_violation.empty()) v.first_violation = log->first_reason();
  }

  // Old-before-new: a member that delivered anything of a later epoch must
  // have delivered every multicast of each earlier epoch.
  std::map<std::uint64_t, std::uint64_t> epoch_size;
  for (std::uint64_t i = 0; i < attempted; ++i) {
    const Msg* msg = find(i);
    if (msg != nullptr && msg->epoch != kNoEpoch) ++epoch_size[msg->epoch];
  }
  for (const Member& m : members_) {
    if (m.epoch_runs.empty()) continue;
    std::map<std::uint64_t, std::uint64_t> got;
    std::uint64_t max_epoch = 0;
    for (const auto& [epoch, count] : m.epoch_runs) {
      got[epoch] += count;
      max_epoch = std::max(max_epoch, epoch);
    }
    for (const auto& [epoch, size] : epoch_size) {
      if (epoch >= max_epoch) break;
      const auto it = got.find(epoch);
      const std::uint64_t have = it == got.end() ? 0 : it->second;
      if (have < size) v.old_before_new += size - have;
    }
  }

  for (std::uint64_t i = 0; i < attempted; ++i) {
    const Msg* msg = find(i);
    const std::uint64_t deliveries = msg == nullptr ? 0 : msg->deliveries;
    bool bad = msg != nullptr && msg->bad;
    if (deliveries < n_) {
      v.undelivered += n_ - deliveries;
      bad = true;
    } else if (deliveries > n_) {
      v.duplicated += deliveries - n_;
      bad = true;
    }
    if (bad) ++v.failed;
  }
  v.failed += out_of_range_;
  v.failed = std::min(v.failed, std::max<std::uint64_t>(attempted, 1));
  return v;
}

std::string Checker::Verdict::summary() const {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "attempted=%llu failed=%llu undelivered=%llu duplicated=%llu fifo=%llu "
                "order=%llu epoch=%llu old_before_new=%llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(undelivered),
                static_cast<unsigned long long>(duplicated),
                static_cast<unsigned long long>(fifo),
                static_cast<unsigned long long>(order),
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(old_before_new));
  std::string out = buf;
  if (!first_violation.empty()) out += " first: " + first_violation;
  return out;
}

namespace {

/// One delivery of a hand-made stream: `member` delivers multicast `msg`
/// (sent by member msg % members as that sender's msg / members-th), after
/// its epoch tap reported `epoch`.
struct Step {
  std::size_t member;
  std::uint64_t msg;
  std::uint64_t epoch;
};

/// Every member delivers multicasts 0..count-1 in order, all in epoch 1.
std::vector<Step> clean_stream(std::size_t members, std::uint64_t count) {
  std::vector<Step> out;
  for (std::size_t m = 0; m < members; ++m) {
    for (std::uint64_t i = 0; i < count; ++i) out.push_back({m, i, 1});
  }
  return out;
}

Checker::Verdict judge(std::size_t members, std::uint64_t count, const std::vector<Step>& steps) {
  Checker c(members, /*total_order=*/true);
  for (const Step& s : steps) {
    c.on_epoch(s.member, s.epoch);
    msw::MsgId id;
    id.sender = static_cast<std::uint32_t>(s.msg % members);
    id.seq = s.msg / members;
    c.on_deliver(s.member, id, s.msg);
  }
  return c.finish(count);
}

}  // namespace

bool checker_selftest() {
  constexpr std::size_t kMembers = 4;
  constexpr std::uint64_t kCount = 200;
  struct Case {
    const char* name;
    std::function<void(std::vector<Step>&)> mutate;
    std::function<bool(const Checker::Verdict&)> expect;
  };
  const auto at = [](std::vector<Step>& s, std::size_t member, std::uint64_t msg) {
    return std::find_if(s.begin(), s.end(),
                        [&](const Step& x) { return x.member == member && x.msg == msg; });
  };
  const std::vector<Case> cases = {
      {"clean stream passes", [](std::vector<Step>&) {},
       [](const Checker::Verdict& v) { return v.ok(); }},
      // Senders differ, so per-sender FIFO still holds: only the order
      // check can see it.
      {"reordered last two deliveries at one member fail the order check",
       [&](std::vector<Step>& s) { std::iter_swap(at(s, 2, kCount - 2), at(s, 2, kCount - 1)); },
       [](const Checker::Verdict& v) { return !v.ok() && v.order > 0 && v.fifo == 0; }},
      {"duplicate delivery fails", [&](std::vector<Step>& s) { s.push_back(*at(s, 1, 10)); },
       [](const Checker::Verdict& v) { return !v.ok() && v.duplicated > 0; }},
      {"lost delivery fails", [&](std::vector<Step>& s) { s.erase(at(s, 3, kCount - 1)); },
       [](const Checker::Verdict& v) { return !v.ok() && v.undelivered == 1; }},
      {"epoch going backwards fails",
       [&](std::vector<Step>& s) {
         for (Step& x : s) x.epoch = x.msg < kCount / 2 ? 1 : 2;
         at(s, 0, kCount - 1)->epoch = 1;
       },
       [](const Checker::Verdict& v) { return !v.ok() && v.epoch > 0; }},
  };
  bool all = true;
  for (const Case& c : cases) {
    std::vector<Step> steps = clean_stream(kMembers, kCount);
    c.mutate(steps);
    const Checker::Verdict v = judge(kMembers, kCount, steps);
    const bool pass = c.expect(v);
    std::printf("[%s] checker: %s\n       %s\n", pass ? "PASS" : "FAIL", c.name, v.summary().c_str());
    all = all && pass;
  }
  return all;
}

}  // namespace pb
