// Time-based pacing of the two token rings (stack/token_pacing.hpp): SP's
// NORMAL token and the token-ring total order's token. On 50 µs hops a
// 5-member ring turns in 250 µs, far under the 2 ms period, so an idle
// group is paced: each ring turns once per period. The tests check the
// rate, that the reported rotation excludes the holds, that a switch
// request or a first send still gets through within a period plus a few
// rotations, that a token ring carrying data is never held while SP's
// NORMAL token stays paced, and that a malformed token is a counted drop.
#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "switch/hybrid.hpp"
#include "switch/multiplex_layer.hpp"

namespace msw {
namespace {

using testing::GroupHarness;

constexpr std::size_t kMembers = 5;
constexpr Duration kHop = 50 * kMicrosecond;
constexpr Duration kRotation = kMembers * kHop;
constexpr Duration kPeriod = kTokenPacePeriod;

NetConfig fast_net() {
  NetConfig cfg = testing::ideal_net();
  cfg.base_latency = kHop;
  return cfg;
}

TokenLayer& token_layer_of(GroupHarness& h, std::size_t i) {
  return static_cast<TokenLayer&>(switch_layer_of(h.group.stack(i)).sub_layer(1, 0));
}

std::uint64_t sp_hops(GroupHarness& h) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < h.group.size(); ++i) {
    n += switch_layer_of(h.group.stack(i)).stats().token_hops;
  }
  return n;
}

std::uint64_t token_visits(GroupHarness& h) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < h.group.size(); ++i) n += token_layer_of(h, i).stats().token_visits;
  return n;
}

bool all_installed(GroupHarness& h, std::uint64_t epoch) {
  for (std::size_t i = 0; i < h.group.size(); ++i) {
    if (switch_layer_of(h.group.stack(i)).epoch() != epoch) return false;
  }
  return true;
}

/// Step the simulation 10 µs at a time until `done` holds; the elapsed time.
template <typename Pred>
Duration time_until(GroupHarness& h, Pred done, Duration limit = kSecond) {
  const Time start = h.sim.now();
  while (!done() && h.sim.now() - start < limit) h.sim.run_for(10 * kMicrosecond);
  return h.sim.now() - start;
}

TEST(TokenPacing, IdleRingsTurnOncePerPeriod) {
  GroupHarness h(kMembers, make_hybrid_total_order_factory(), fast_net());
  h.sim.run_for(100 * kMillisecond);
  const std::uint64_t hops0 = sp_hops(h);
  const std::uint64_t visits0 = token_visits(h);
  h.sim.run_for(kSecond);
  const double expected = static_cast<double>(kMembers) * kSecond / kPeriod;
  EXPECT_NEAR(static_cast<double>(sp_hops(h) - hops0), expected, 0.1 * expected);
  EXPECT_NEAR(static_cast<double>(token_visits(h) - visits0), expected, 0.1 * expected);
}

TEST(TokenPacing, RotationExcludesPacingHolds) {
  GroupHarness h(kMembers, make_hybrid_total_order_factory(), fast_net());
  h.sim.run_for(100 * kMillisecond);
  for (std::size_t i = 0; i < kMembers; ++i) {
    const Duration rotation = switch_layer_of(h.group.stack(i)).normal_rotation();
    EXPECT_NEAR(rotation, kRotation, kHop / 2) << "member " << i;
  }
}

TEST(TokenPacing, RequestedSwitchInstallsWithinPeriodPlusFourRotations) {
  // Request at several phases of the paced cycle, from different members.
  for (int k = 0; k < 8; ++k) {
    GroupHarness h(kMembers, make_hybrid_total_order_factory(), fast_net());
    h.sim.run_for(100 * kMillisecond + k * kPeriod / 8);
    switch_layer_of(h.group.stack(k % kMembers)).request_switch();
    const Duration took = time_until(h, [&] { return all_installed(h, 1); });
    EXPECT_LE(took, kPeriod + 4 * kRotation) << "phase " << k;
  }
}

TEST(TokenPacing, FirstSendOnIdleTokenRingArrivesWithinPeriodPlusTwoRotations) {
  for (int k = 0; k < 8; ++k) {
    GroupHarness h(kMembers, make_hybrid_total_order_factory(), fast_net());
    switch_layer_of(h.group.stack(0)).request_switch();
    h.sim.run_for(50 * kMillisecond);
    ASSERT_TRUE(all_installed(h, 1));  // the token ring carries data now
    // Idle long enough for the token ring to park, then send.
    h.sim.run_for(50 * kMillisecond + k * kPeriod / 8);
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < kMembers; ++i) {
      h.group.stack(i).set_on_deliver(
          [&delivered](const MsgId&, std::span<const Byte>) { ++delivered; });
    }
    h.group.send(k % kMembers, to_bytes("first"));
    const Duration took = time_until(h, [&] { return delivered == kMembers; });
    EXPECT_EQ(delivered, kMembers) << "phase " << k;
    EXPECT_LE(took, kPeriod + 2 * kRotation) << "phase " << k;
  }
}

TEST(TokenPacing, UnderLoadTokenRingRunsUnheldWhileSpStaysPaced) {
  GroupHarness h(kMembers, make_hybrid_total_order_factory(), fast_net());
  switch_layer_of(h.group.stack(0)).request_switch();
  h.sim.run_for(50 * kMillisecond);
  ASSERT_TRUE(all_installed(h, 1));
  // Member 1 multicasts every 100 µs on the token ring for 100 ms.
  const Time start = h.sim.now();
  for (int k = 0; k < 1000; ++k) {
    h.sim.scheduler().at(start + k * 100 * kMicrosecond,
                         [&h] { h.group.send(1, to_bytes("load")); });
  }
  const std::uint64_t hops0 = sp_hops(h);
  const std::uint64_t visits0 = token_visits(h);
  h.sim.run_for(100 * kMillisecond);
  // The token ring carries data, so it turns unheld: one visit per hop.
  EXPECT_NEAR(static_cast<double>(token_visits(h) - visits0),
              static_cast<double>(100 * kMillisecond / kHop), 0.1 * 100 * kMillisecond / kHop);
  // SP's NORMAL token carries no work, so it is paced under load too.
  const double paced = static_cast<double>(kMembers) * 100 * kMillisecond / kPeriod;
  EXPECT_NEAR(static_cast<double>(sp_hops(h) - hops0), paced, 0.1 * paced);
}

TEST(TokenPacing, MalformedTokenTrailerIsACountedDrop) {
  GroupHarness h(kMembers, make_hybrid_total_order_factory(), fast_net());
  h.sim.run_for(10 * kMillisecond);
  // A NORMAL token frame (CtlType::kToken, TokenMode::kNormal, serial,
  // epoch, initiator, empty count vector) followed by `tail`, on SP's
  // control channel.
  const auto inject = [&h](std::uint32_t count, std::vector<Byte> tail) {
    Message m = Message::group({});
    m.push_header([&](Writer& w) {
      w.u8(0);
      w.u8(0);
      w.u64(1'000'000);
      w.u64(0);
      w.u32(0);
      w.u32(count);
      for (Byte b : tail) w.u8(b);
    });
    Mux::push(m, 2);
    h.net.send(h.group.node(0), h.group.node(1), std::move(m.data));
  };
  inject(0, {0x80});              // varint cut off after a continuation byte
  inject(0, {0x05, 0x00});        // a byte after the varint
  inject(0xffffffffu, {});        // count vector larger than the frame
  h.sim.run_for(10 * kMillisecond);
  EXPECT_EQ(switch_layer_of(h.group.stack(1)).stats().decode_drops, 3u);
  // The ring is unharmed: a switch still completes everywhere.
  switch_layer_of(h.group.stack(2)).request_switch();
  h.sim.run_for(50 * kMillisecond);
  EXPECT_TRUE(all_installed(h, 1));
}

}  // namespace
}  // namespace msw
