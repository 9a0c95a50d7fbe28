// Reliable-layer control-plane wire formats: varint edge values, range-NACK
// and delta-ack-vector round trips, truncation -> DecodeError, and frames
// of a type the layer does not define (including the retired per-sequence
// formats) as counted drops.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "proto/reliable_layer.hpp"
#include "util/bytes.hpp"

namespace msw {
namespace {

using relwire::AckVecFrame;
using relwire::NackFrame;
using testing::GroupHarness;

// ---------------------------------------------------------------- varint --

TEST(Varint, RoundTripEdgeValues) {
  const std::uint64_t values[] = {
      0,   1,   127,  128,  129,   255,        256,
      300, 16'383, 16'384, 1'000'000, ~std::uint64_t{0} >> 1, ~std::uint64_t{0}};
  for (std::uint64_t v : values) {
    Bytes buf;
    Writer w(buf);
    w.varint(v);
    Reader r(buf);
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(Varint, SingleByteBelow128) {
  Bytes buf;
  Writer w(buf);
  w.varint(127);
  EXPECT_EQ(buf.size(), 1u);
  w.varint(128);
  EXPECT_EQ(buf.size(), 3u);  // second value took two bytes
}

TEST(Varint, TruncatedThrows) {
  Bytes buf;
  Writer w(buf);
  w.varint(1'000'000);  // multi-byte
  buf.pop_back();       // drop the terminating byte
  Reader r(buf);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Varint, OverlongThrows) {
  // 11 continuation bytes: no u64 needs that many.
  Bytes buf(11, 0x80);
  Reader r(buf);
  EXPECT_THROW(r.varint(), DecodeError);
}

// ------------------------------------------------------------ range NACK --

TEST(RelWire, NackRoundTrip) {
  NackFrame f;
  f.origin = 42;
  f.ranges = {{3, 7}, {10, 11}, {1'000'000, 1'000'050}};
  Bytes buf;
  Writer w(buf);
  relwire::encode_nack(w, f);
  Reader r(buf);
  const NackFrame d = relwire::decode_nack(r);
  r.expect_done();
  EXPECT_EQ(d.origin, f.origin);
  EXPECT_EQ(d.ranges, f.ranges);
}

TEST(RelWire, NackEmptyRangesRoundTrip) {
  NackFrame f;
  f.origin = 7;
  Bytes buf;
  Writer w(buf);
  relwire::encode_nack(w, f);
  Reader r(buf);
  const NackFrame d = relwire::decode_nack(r);
  EXPECT_EQ(d.origin, 7u);
  EXPECT_TRUE(d.ranges.empty());
}

TEST(RelWire, NackWideGapIsCompact) {
  // One huge contiguous hole costs a fixed handful of bytes; the retired
  // per-sequence encoding would need 8 bytes per missing sequence.
  NackFrame f;
  f.origin = 1;
  f.ranges = {{0, 100'000}};
  Bytes buf;
  Writer w(buf);
  relwire::encode_nack(w, f);
  EXPECT_LT(buf.size(), 16u);
  Reader r(buf);
  EXPECT_EQ(relwire::decode_nack(r).ranges, f.ranges);
}

TEST(RelWire, NackTruncatedHeaderThrows) {
  NackFrame f;
  f.origin = 9;
  f.ranges = {{5, 8}, {12, 20}};
  Bytes full;
  Writer w(full);
  relwire::encode_nack(w, f);
  // Every proper prefix must throw, never decode garbage.
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    Reader r(cut);
    EXPECT_THROW(relwire::decode_nack(r), DecodeError) << "prefix " << len;
  }
}

// ---------------------------------------------------------- delta ack vec --

TEST(RelWire, AckVecFullRoundTrip) {
  AckVecFrame f;
  f.sender = 3;
  f.full = true;
  f.cums = {{0, 17}, {2, 0}, {5, 1'000'000}, {1'000, 42}};
  Bytes buf;
  Writer w(buf);
  relwire::encode_ack_vec(w, f);
  Reader r(buf);
  const AckVecFrame d = relwire::decode_ack_vec(r);
  r.expect_done();
  EXPECT_EQ(d.sender, f.sender);
  EXPECT_EQ(d.full, f.full);
  EXPECT_EQ(d.cums, f.cums);
}

TEST(RelWire, AckVecDeltaRoundTrip) {
  AckVecFrame f;
  f.sender = 11;
  f.full = false;
  f.cums = {{4, 9}};
  Bytes buf;
  Writer w(buf);
  relwire::encode_ack_vec(w, f);
  Reader r(buf);
  const AckVecFrame d = relwire::decode_ack_vec(r);
  EXPECT_FALSE(d.full);
  EXPECT_EQ(d.cums, f.cums);
}

TEST(RelWire, AckVecEmptyRoundTrip) {
  AckVecFrame f;
  f.sender = 0;
  f.full = false;
  Bytes buf;
  Writer w(buf);
  relwire::encode_ack_vec(w, f);
  Reader r(buf);
  const AckVecFrame d = relwire::decode_ack_vec(r);
  EXPECT_TRUE(d.cums.empty());
}

TEST(RelWire, AckVecTruncatedThrows) {
  AckVecFrame f;
  f.sender = 1;
  f.full = true;
  f.cums = {{0, 5}, {1, 300}, {9, 12}};
  Bytes full;
  Writer w(full);
  relwire::encode_ack_vec(w, f);
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    Reader r(cut);
    EXPECT_THROW(relwire::decode_ack_vec(r), DecodeError) << "prefix " << len;
  }
}

TEST(RelWire, AckVecBadFlagsThrows) {
  AckVecFrame f;
  f.sender = 1;
  f.cums = {{0, 1}};
  Bytes buf;
  Writer w(buf);
  relwire::encode_ack_vec(w, f);
  buf[4] = 0x7e;  // flags byte after the u32 sender
  Reader r(buf);
  EXPECT_THROW(relwire::decode_ack_vec(r), DecodeError);
}

// -------------------------------------------------------- oversized frames --

TEST(RelWire, EncodeNackRefusesOversizedRangeList) {
  // The frame's range count is a u16; one entry past it must throw, never
  // silently truncate (a truncated frame disagrees with its own count).
  NackFrame f;
  f.origin = 1;
  f.ranges.resize(0x10000);
  Bytes buf;
  Writer w(buf);
  EXPECT_THROW(relwire::encode_nack(w, f), DecodeError);
}

TEST(RelWire, EncodeAckVecRefusesOversizedVector) {
  AckVecFrame f;
  f.sender = 1;
  f.cums.resize(0x10000);
  Bytes buf;
  Writer w(buf);
  EXPECT_THROW(relwire::encode_ack_vec(w, f), DecodeError);
}

// ------------------------------------------------------- retired formats --

TEST(RelWire, RetiredTypeBytesAreCountedDrops) {
  // Bytes 2 and 5 were the per-sequence NACK and the fixed-width ack
  // vector, whose bodies carried a u32 entry count. Frames of those types
  // claiming ~4G entries while holding none reach every member; each is a
  // counted decode drop, never a misparse or a giant allocation.
  std::vector<ReliableLayer*> layers;
  const LayerFactory factory = [&layers](NodeId, const std::vector<NodeId>&) {
    auto layer = std::make_unique<ReliableLayer>();
    layers.push_back(layer.get());
    std::vector<std::unique_ptr<Layer>> out;
    out.push_back(std::move(layer));
    return out;
  };
  GroupHarness h(3, factory);
  const NodeId attacker = h.net.add_node();
  for (const std::uint8_t type : {std::uint8_t{2}, std::uint8_t{5}}) {
    Message evil = Message::group({});
    evil.push_header([type](Writer& w) {
      w.u8(type);
      w.u32(7);           // origin / claimed sender
      w.u32(0xFFFFFFFF);  // claimed entry count, no entries follow
    });
    h.net.multicast(attacker, h.group.members(), evil.data);
  }
  h.sim.run_for(kSecond);
  std::uint64_t drops = 0;
  for (const ReliableLayer* l : layers) drops += l->stats().decode_drops;
  EXPECT_EQ(drops, 6u);  // two frames x three members, all counted drops
  // The group is unharmed and still converges.
  h.group.send(0, to_bytes("still-alive"));
  h.sim.run_for(kSecond);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(h.delivered_data(p).size(), 1u) << "member " << p;
  }
}

}  // namespace
}  // namespace msw
