#include "net/fault.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iomanip>
#include <sstream>

namespace msw {
namespace {

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from.v) << 32) | to.v;
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool in_mask(std::uint64_t mask, std::uint32_t node) {
  return node < 64 && (mask >> node) & 1;
}

void render_double(std::ostringstream& os, double v) {
  os << std::setprecision(17) << v << std::setprecision(6);
}

// --- parsing helpers ------------------------------------------------------

bool parse_u64(std::string_view s, std::uint64_t& out, int base = 10) {
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out, base);
  return res.ec == std::errc{} && res.ptr == end;
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

bool parse_double(std::string_view s, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(std::string(s), &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

/// Split `s` once at the first `sep`; returns false if absent.
bool split_at(std::string_view s, char sep, std::string_view& head, std::string_view& tail) {
  const auto pos = s.find(sep);
  if (pos == std::string_view::npos) return false;
  head = s.substr(0, pos);
  tail = s.substr(pos + 1);
  return true;
}

}  // namespace

// --------------------------------------------------------------------------
// FaultSchedule serialization
// --------------------------------------------------------------------------

std::string FaultSchedule::to_string() const {
  if (empty()) return "none";
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ';';
    first = false;
  };
  if (dup_prob > 0.0) {
    sep();
    os << "dup=";
    render_double(os, dup_prob);
    os << '@' << dup_delay_max;
  }
  if (reorder_prob > 0.0) {
    sep();
    os << "reorder=";
    render_double(os, reorder_prob);
    os << '@' << reorder_delay_max;
  }
  for (const FaultEvent& e : events) {
    sep();
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
        os << "linkdown@" << e.at << ':' << e.a << '-' << e.b;
        break;
      case FaultEvent::Kind::kLinkUp:
        os << "linkup@" << e.at << ':' << e.a << '-' << e.b;
        break;
      case FaultEvent::Kind::kPartition:
        os << "part@" << e.at << ":x" << std::hex << e.mask << std::dec;
        break;
      case FaultEvent::Kind::kHeal:
        os << "heal@" << e.at << ":x" << std::hex << e.mask << std::dec;
        break;
      case FaultEvent::Kind::kCrash:
        os << "crash@" << e.at << ':' << e.a;
        break;
      case FaultEvent::Kind::kRestart:
        os << "restart@" << e.at << ':' << e.a;
        break;
      case FaultEvent::Kind::kJitterBurst:
        os << "jitter@" << e.at << ':' << e.duration << ':' << e.magnitude;
        break;
    }
  }
  return os.str();
}

std::optional<FaultSchedule> FaultSchedule::parse(std::string_view s) {
  FaultSchedule out;
  if (s == "none" || s.empty()) return out;
  while (!s.empty()) {
    std::string_view item = s;
    const auto pos = s.find(';');
    if (pos == std::string_view::npos) {
      s = {};
    } else {
      item = s.substr(0, pos);
      s = s.substr(pos + 1);
    }
    std::string_view head, tail;
    if (split_at(item, '=', head, tail)) {
      // Continuous knob: <name>=<prob>@<maxdelay>
      std::string_view prob_s, delay_s;
      double prob = 0.0;
      std::int64_t delay = 0;
      if (!split_at(tail, '@', prob_s, delay_s) || !parse_double(prob_s, prob) ||
          !parse_i64(delay_s, delay) || prob < 0.0 || prob > 1.0 || delay < 0) {
        return std::nullopt;
      }
      if (head == "dup") {
        out.dup_prob = prob;
        out.dup_delay_max = delay;
      } else if (head == "reorder") {
        out.reorder_prob = prob;
        out.reorder_delay_max = delay;
      } else {
        return std::nullopt;
      }
      continue;
    }
    // Timed event: <name>@<t>:<args>
    if (!split_at(item, '@', head, tail)) return std::nullopt;
    std::string_view time_s, args;
    if (!split_at(tail, ':', time_s, args)) return std::nullopt;
    FaultEvent e;
    if (!parse_i64(time_s, e.at) || e.at < 0) return std::nullopt;
    if (head == "linkdown" || head == "linkup") {
      e.kind = head == "linkdown" ? FaultEvent::Kind::kLinkDown : FaultEvent::Kind::kLinkUp;
      std::string_view a_s, b_s;
      std::uint64_t a = 0, b = 0;
      if (!split_at(args, '-', a_s, b_s) || !parse_u64(a_s, a) || !parse_u64(b_s, b)) {
        return std::nullopt;
      }
      e.a = static_cast<std::uint32_t>(a);
      e.b = static_cast<std::uint32_t>(b);
    } else if (head == "part" || head == "heal") {
      e.kind = head == "part" ? FaultEvent::Kind::kPartition : FaultEvent::Kind::kHeal;
      if (args.size() < 2 || args[0] != 'x' || !parse_u64(args.substr(1), e.mask, 16)) {
        return std::nullopt;
      }
    } else if (head == "crash" || head == "restart") {
      e.kind = head == "crash" ? FaultEvent::Kind::kCrash : FaultEvent::Kind::kRestart;
      std::uint64_t a = 0;
      if (!parse_u64(args, a)) return std::nullopt;
      e.a = static_cast<std::uint32_t>(a);
    } else if (head == "jitter") {
      e.kind = FaultEvent::Kind::kJitterBurst;
      std::string_view dur_s, mag_s;
      if (!split_at(args, ':', dur_s, mag_s) || !parse_i64(dur_s, e.duration) ||
          !parse_i64(mag_s, e.magnitude) || e.duration < 0 || e.magnitude < 0) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    out.events.push_back(e);
  }
  return out;
}

// --------------------------------------------------------------------------
// Schedule generation
// --------------------------------------------------------------------------

FaultSchedule generate_fault_schedule(Rng& rng, std::size_t n_nodes, Time horizon,
                                      const FaultGenOptions& opts) {
  // Bounds of everything but crashes: at most this many of each event
  // kind, duplication/reordering probabilities drawn below these, and
  // down/partition/burst windows of 10-500 ms.
  constexpr std::size_t kMaxLinkCuts = 2;
  constexpr std::size_t kMaxPartitions = 1;
  constexpr std::size_t kMaxJitterBursts = 2;
  constexpr double kDupProbMax = 0.08;
  constexpr double kReorderProbMax = 0.15;
  constexpr Duration kMinOutage = 10 * kMillisecond;
  constexpr Duration kMaxOutage = 500 * kMillisecond;

  assert(n_nodes >= 2 && n_nodes <= 64);
  FaultSchedule s;
  const auto outage_window = [&](Time& begin, Time& end) {
    const Duration len =
        kMinOutage +
        static_cast<Duration>(rng.below(static_cast<std::uint64_t>(kMaxOutage - kMinOutage) + 1));
    begin = static_cast<Time>(rng.below(static_cast<std::uint64_t>(horizon - len)));
    end = begin + len;
  };

  const std::size_t cuts = rng.index(kMaxLinkCuts + 1);
  for (std::size_t i = 0; i < cuts; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.index(n_nodes));
    auto b = static_cast<std::uint32_t>(rng.index(n_nodes - 1));
    if (b >= a) ++b;
    Time begin = 0, end = 0;
    outage_window(begin, end);
    s.events.push_back({FaultEvent::Kind::kLinkDown, begin, a, b, 0, 0, 0});
    s.events.push_back({FaultEvent::Kind::kLinkUp, end, a, b, 0, 0, 0});
  }

  const std::size_t parts = rng.index(kMaxPartitions + 1);
  for (std::size_t i = 0; i < parts; ++i) {
    // Isolate a strict, non-empty minority side.
    const std::size_t k = 1 + rng.index(std::max<std::size_t>(n_nodes / 2, 1));
    std::uint64_t mask = 0;
    while (static_cast<std::size_t>(__builtin_popcountll(mask)) < k) {
      mask |= std::uint64_t{1} << rng.index(n_nodes);
    }
    Time begin = 0, end = 0;
    outage_window(begin, end);
    s.events.push_back({FaultEvent::Kind::kPartition, begin, 0, 0, mask, 0, 0});
    s.events.push_back({FaultEvent::Kind::kHeal, end, 0, 0, mask, 0, 0});
  }

  const std::size_t crashes = rng.index(opts.max_crashes + 1);
  for (std::size_t i = 0; i < crashes; ++i) {
    const auto node = static_cast<std::uint32_t>(rng.index(n_nodes));
    Time begin = 0, end = 0;
    outage_window(begin, end);
    s.events.push_back({FaultEvent::Kind::kCrash, begin, node, 0, 0, 0, 0});
    s.events.push_back({FaultEvent::Kind::kRestart, end, node, 0, 0, 0, 0});
  }

  const std::size_t bursts = rng.index(kMaxJitterBursts + 1);
  for (std::size_t i = 0; i < bursts; ++i) {
    Time begin = 0, end = 0;
    outage_window(begin, end);
    const Duration magnitude =
        1 * kMillisecond + static_cast<Duration>(rng.below(30 * kMillisecond));
    s.events.push_back(
        {FaultEvent::Kind::kJitterBurst, begin, 0, 0, 0, end - begin, magnitude});
  }

  if (rng.chance(0.5)) s.dup_prob = rng.uniform() * kDupProbMax;
  if (rng.chance(0.5)) s.reorder_prob = rng.uniform() * kReorderProbMax;

  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
  return s;
}

// --------------------------------------------------------------------------
// FaultPlane
// --------------------------------------------------------------------------

FaultPlane::FaultPlane(Network& net, Rng rng, FaultSchedule schedule)
    : net_(net), rng_(rng), link_seed_base_(rng_.next()), schedule_(std::move(schedule)) {}

FaultPlane::~FaultPlane() {
  if (!installed_) return;
  for (EventId id : armed_) net_.scheduler().cancel(id);
  net_.set_fault_injector(nullptr);
}

void FaultPlane::install() {
  assert(!installed_);
  installed_ = true;
  Scheduler& sched = net_.scheduler();
  for (const FaultEvent& e : schedule_.events) {
    armed_.push_back(sched.at(std::max(e.at, sched.now()), [this, e] { apply(e); }));
  }
  net_.set_fault_injector(this);
}

void FaultPlane::apply(const FaultEvent& e) {
  const std::size_t n = net_.node_count();
  switch (e.kind) {
    case FaultEvent::Kind::kLinkDown:
    case FaultEvent::Kind::kLinkUp: {
      if (e.a >= n || e.b >= n) return;
      net_.set_link_up(NodeId{e.a}, NodeId{e.b}, e.kind == FaultEvent::Kind::kLinkUp);
      return;
    }
    case FaultEvent::Kind::kPartition:
    case FaultEvent::Kind::kHeal: {
      const bool up = e.kind == FaultEvent::Kind::kHeal;
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
          if (i == j || in_mask(e.mask, i) == in_mask(e.mask, j)) continue;
          net_.set_link_up(NodeId{i}, NodeId{j}, up);
        }
      }
      return;
    }
    case FaultEvent::Kind::kCrash:
      if (e.a < n) net_.crash_node(NodeId{e.a});
      return;
    case FaultEvent::Kind::kRestart:
      if (e.a < n) net_.restart_node(NodeId{e.a});
      return;
    case FaultEvent::Kind::kJitterBurst:
      bursts_.emplace_back(net_.scheduler().now() + e.duration, e.magnitude);
      return;
  }
}

Rng& FaultPlane::link_stream(NodeId from, NodeId to) {
  const std::uint64_t key = link_key(from, to);
  auto it = link_rngs_.find(key);
  if (it == link_rngs_.end()) {
    it = link_rngs_.emplace(key, Rng(link_seed_base_ ^ mix64(key))).first;
  }
  return it->second;
}

FaultInjector::CopyPlan FaultPlane::on_copy(NodeId from, NodeId to, Time now) {
  CopyPlan plan;
  Rng& rng = link_stream(from, to);
  if (schedule_.dup_prob > 0.0 && rng.chance(schedule_.dup_prob)) {
    plan.duplicate = true;
    plan.duplicate_delay = static_cast<Duration>(
        rng.below(static_cast<std::uint64_t>(schedule_.dup_delay_max) + 1));
  }
  if (schedule_.reorder_prob > 0.0 && rng.chance(schedule_.reorder_prob)) {
    plan.extra_delay += static_cast<Duration>(
        rng.below(static_cast<std::uint64_t>(schedule_.reorder_delay_max) + 1));
  }
  // Jitter bursts: expired windows are pruned lazily; overlapping windows
  // contribute the strongest magnitude.
  std::erase_if(bursts_, [now](const auto& b) { return b.first <= now; });
  Duration burst = 0;
  for (const auto& b : bursts_) burst = std::max(burst, b.second);
  if (burst > 0) {
    plan.extra_delay +=
        static_cast<Duration>(rng.below(static_cast<std::uint64_t>(burst) + 1));
  }
  return plan;
}

}  // namespace msw
