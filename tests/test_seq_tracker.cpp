// SeqTracker: contiguity, duplicates, gap reporting.
#include <gtest/gtest.h>

#include "util/seq_tracker.hpp"

namespace msw {
namespace {

TEST(SeqTracker, InOrderAdvancesContiguous) {
  SeqTracker t;
  for (std::uint64_t s = 0; s < 10; ++s) {
    EXPECT_TRUE(t.insert(s));
    EXPECT_EQ(t.contiguous(), s + 1);
  }
  EXPECT_FALSE(t.has_gaps());
}

TEST(SeqTracker, DuplicateRejected) {
  SeqTracker t;
  EXPECT_TRUE(t.insert(0));
  EXPECT_FALSE(t.insert(0));
  EXPECT_TRUE(t.insert(5));
  EXPECT_FALSE(t.insert(5));
}

TEST(SeqTracker, GapThenFill) {
  SeqTracker t;
  EXPECT_TRUE(t.insert(0));
  EXPECT_TRUE(t.insert(2));
  EXPECT_EQ(t.contiguous(), 1u);
  EXPECT_TRUE(t.has_gaps());
  EXPECT_TRUE(t.insert(1));
  EXPECT_EQ(t.contiguous(), 3u);
  EXPECT_FALSE(t.has_gaps());
}

TEST(SeqTracker, SeenQueries) {
  SeqTracker t;
  t.insert(0);
  t.insert(2);
  EXPECT_TRUE(t.seen(0));
  EXPECT_FALSE(t.seen(1));
  EXPECT_TRUE(t.seen(2));
  EXPECT_FALSE(t.seen(3));
}

TEST(SeqTracker, LongOutOfOrderRun) {
  SeqTracker t;
  // Insert 0..99 in reverse; contiguity resolves only at the end.
  for (std::uint64_t s = 100; s-- > 1;) EXPECT_TRUE(t.insert(s));
  EXPECT_EQ(t.contiguous(), 0u);
  EXPECT_TRUE(t.insert(0));
  EXPECT_EQ(t.contiguous(), 100u);
  EXPECT_EQ(t.sparse_count(), 0u);
}

TEST(SeqTracker, MissingRangesEnumeratesGaps) {
  SeqTracker t;
  t.insert(0);
  t.insert(3);
  t.insert(4);
  t.insert(8);
  const auto ranges = t.missing_ranges(10, 100);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (SeqRange{1, 3}));
  EXPECT_EQ(ranges[1], (SeqRange{5, 8}));
  EXPECT_EQ(ranges[2], (SeqRange{9, 10}));
}

TEST(SeqTracker, MissingRangesCoversTailBeyondSparse) {
  // The tail [max(sparse)+1, bound) must come back as one range even when
  // the bound is far past everything seen (heartbeat horizon after a long
  // partition).
  SeqTracker t;
  t.insert(0);
  t.insert(5);
  const auto ranges = t.missing_ranges(1'000'000, 1'000'000);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (SeqRange{1, 5}));
  EXPECT_EQ(ranges[1], (SeqRange{6, 1'000'000}));
}

TEST(SeqTracker, MissingRangesRespectsSeqBudget) {
  SeqTracker t;
  t.insert(0);
  t.insert(10);
  // Budget of 5 sequences: [1,6) truncated from [1,10).
  const auto ranges = t.missing_ranges(20, 5);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (SeqRange{1, 6}));
}

TEST(SeqTracker, MissingRangesBudgetSpansRanges) {
  SeqTracker t;
  t.insert(0);
  t.insert(2);  // gap {1}
  t.insert(9);  // gap [3,9)
  const auto ranges = t.missing_ranges(10, 4);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (SeqRange{1, 2}));
  EXPECT_EQ(ranges[1], (SeqRange{3, 6}));  // 3 of budget 4 left after {1}
}

TEST(SeqTracker, AdjacentInsertsCoalesceRuns) {
  SeqTracker t;
  t.insert(5);
  t.insert(7);
  EXPECT_EQ(t.sparse_count(), 2u);
  t.insert(6);  // bridges [5,6) and [7,8) into [5,8)
  EXPECT_EQ(t.sparse_count(), 3u);
  const auto ranges = t.missing_ranges(10, 100);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (SeqRange{0, 5}));
  EXPECT_EQ(ranges[1], (SeqRange{8, 10}));
  // Filling the prefix absorbs the whole run into contiguous.
  for (std::uint64_t s = 0; s < 5; ++s) EXPECT_TRUE(t.insert(s));
  EXPECT_EQ(t.contiguous(), 8u);
  EXPECT_FALSE(t.has_gaps());
}

TEST(SeqTracker, DuplicatesInsideRunsRejected) {
  SeqTracker t;
  for (std::uint64_t s : {4u, 5u, 6u, 10u}) EXPECT_TRUE(t.insert(s));
  for (std::uint64_t s : {4u, 5u, 6u, 10u}) EXPECT_FALSE(t.insert(s)) << s;
  EXPECT_FALSE(t.seen(3));
  EXPECT_FALSE(t.seen(7));
  EXPECT_TRUE(t.seen(5));
}

TEST(SeqTracker, HugeGapStaysCheap) {
  // 10^9-wide gap with a handful of sparse arrivals: enumeration must be
  // proportional to the runs, not the gap (this test would time out under
  // the old per-sequence scan if the budget were unlimited).
  SeqTracker t;
  t.insert(1'000'000'000);
  t.insert(2'000'000'000);
  const auto ranges = t.missing_ranges(3'000'000'000, ~std::uint64_t{0});
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (SeqRange{0, 1'000'000'000}));
  EXPECT_EQ(ranges[1], (SeqRange{1'000'000'001, 2'000'000'000}));
  EXPECT_EQ(ranges[2], (SeqRange{2'000'000'001, 3'000'000'000}));
}

TEST(MissingRangesIn, EnumeratesReorderMapGaps) {
  // The sequencer/token reorder buffers are ordered maps keyed by gseq;
  // gap NACK enumeration walks the keys instead of probing every seq.
  std::map<std::uint64_t, int> held{{3, 0}, {4, 0}, {7, 0}};
  const auto ranges = missing_ranges_in(held, 1, 10, 100);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (SeqRange{1, 3}));
  EXPECT_EQ(ranges[1], (SeqRange{5, 7}));
  EXPECT_EQ(ranges[2], (SeqRange{8, 10}));
}

TEST(MissingRangesIn, EmptyMapIsOneRange) {
  std::map<std::uint64_t, int> held;
  const auto ranges = missing_ranges_in(held, 5, 1'000'000, 64);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (SeqRange{5, 69}));  // budget-truncated
}

TEST(MissingRangesIn, IgnoresKeysOutsideWindow) {
  std::map<std::uint64_t, int> held{{1, 0}, {5, 0}, {50, 0}};
  const auto ranges = missing_ranges_in(held, 3, 10, 100);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (SeqRange{3, 5}));
  EXPECT_EQ(ranges[1], (SeqRange{6, 10}));
}

}  // namespace
}  // namespace msw
