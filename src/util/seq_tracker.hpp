// Tracks which sequence numbers from a dense stream have been seen:
// a contiguous prefix [0, contiguous) plus run-length-coded intervals
// beyond it. Used for duplicate suppression and gap detection by the
// reliable, sequencer, and token layers.
//
// The interval representation is what keeps the control plane cheap at
// scale: after a long partition the missing set is a handful of *ranges*,
// so gap enumeration walks the stored runs — O(runs + output) — instead
// of probing every sequence in [contiguous, announced) one by one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace msw {

/// Half-open range [begin, end) of sequence numbers.
struct SeqRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end - begin; }
  bool operator==(const SeqRange&) const = default;
};

class SeqTracker {
 public:
  /// Marks seq as seen. Returns false if it was already seen (duplicate).
  bool insert(std::uint64_t seq) {
    if (seq < contiguous_) return false;
    if (seq == contiguous_) {
      ++contiguous_;
      // Absorb a run that now touches the prefix.
      const auto it = runs_.begin();
      if (it != runs_.end() && it->first == contiguous_) {
        contiguous_ = it->second;
        sparse_count_ -= it->second - it->first;
        runs_.erase(it);
      }
      return true;
    }
    // First run at or after seq; `left` is the run before it (if any).
    auto right = runs_.lower_bound(seq);
    if (right != runs_.end() && right->first == seq) return false;  // run start
    if (right != runs_.begin()) {
      const auto left = std::prev(right);
      if (seq < left->second) return false;  // inside an existing run
      if (seq == left->second) {
        // Extends `left`; maybe bridges the gap to `right`.
        ++left->second;
        ++sparse_count_;
        if (right != runs_.end() && right->first == left->second) {
          left->second = right->second;
          runs_.erase(right);
        }
        return true;
      }
    }
    if (right != runs_.end() && right->first == seq + 1) {
      // Extends `right` downward: re-key the run.
      const std::uint64_t end = right->second;
      runs_.erase(right);
      runs_.emplace(seq, end);
      ++sparse_count_;
      return true;
    }
    runs_.emplace(seq, seq + 1);
    ++sparse_count_;
    return true;
  }

  bool seen(std::uint64_t seq) const {
    if (seq < contiguous_) return true;
    auto it = runs_.upper_bound(seq);
    if (it == runs_.begin()) return false;
    return seq < std::prev(it)->second;
  }

  /// One past the largest seq in the fully-seen prefix.
  std::uint64_t contiguous() const { return contiguous_; }

  /// Missing ranges in [contiguous, bound), capped at `max_seqs` total
  /// sequences (the last range is truncated to fit). Walks the stored
  /// runs, so the cost is independent of the width of the gaps.
  std::vector<SeqRange> missing_ranges(std::uint64_t bound, std::uint64_t max_seqs) const {
    std::vector<SeqRange> out;
    std::uint64_t budget = max_seqs;
    std::uint64_t cursor = contiguous_;
    for (auto it = runs_.begin(); it != runs_.end() && cursor < bound && budget > 0; ++it) {
      if (it->first > cursor) {
        // min(bound - cursor, budget) first: cursor + budget itself can wrap.
        const std::uint64_t take = std::min(bound - cursor, budget);
        const std::uint64_t end = std::min(it->first, cursor + take);
        out.push_back({cursor, end});
        budget -= end - cursor;
      }
      cursor = std::max(cursor, it->second);
    }
    if (cursor < bound && budget > 0) {
      out.push_back({cursor, cursor + std::min(bound - cursor, budget)});
    }
    return out;
  }

  bool has_gaps() const { return !runs_.empty(); }
  /// Number of sequences seen beyond the contiguous prefix.
  std::size_t sparse_count() const { return sparse_count_; }
  /// Number of stored interval runs — the tracker's actual memory footprint.
  std::size_t runs() const { return runs_.size(); }

 private:
  std::uint64_t contiguous_ = 0;
  // Disjoint, non-adjacent runs of seen sequences beyond contiguous_,
  // keyed by start, value = one-past-the-end. Out-of-order arrival mostly
  // extends an existing run, so insert is O(log runs), not O(log seqs).
  std::map<std::uint64_t, std::uint64_t> runs_;
  std::size_t sparse_count_ = 0;
};

/// Missing ranges in [from, bound) for a reorder buffer held as an ordered
/// map keyed by sequence number (sequencer / token receiver state). Walks
/// the map entries from `from`, so a wide horizon gap after a partition
/// costs O(held + output ranges), never O(bound - from).
template <typename OrderedMap>
std::vector<SeqRange> missing_ranges_in(const OrderedMap& held, std::uint64_t from,
                                        std::uint64_t bound, std::uint64_t max_seqs) {
  std::vector<SeqRange> out;
  std::uint64_t budget = max_seqs;
  std::uint64_t cursor = from;
  for (auto it = held.lower_bound(from); it != held.end() && it->first < bound && budget > 0;
       ++it) {
    if (it->first > cursor) {
      // min(bound - cursor, budget) first: cursor + budget itself can wrap.
      const std::uint64_t take = std::min(bound - cursor, budget);
      const std::uint64_t end = std::min(it->first, cursor + take);
      out.push_back({cursor, end});
      budget -= end - cursor;
    }
    cursor = std::max(cursor, it->first + 1);
  }
  if (cursor < bound && budget > 0) {
    out.push_back({cursor, cursor + std::min(bound - cursor, budget)});
  }
  return out;
}

}  // namespace msw
