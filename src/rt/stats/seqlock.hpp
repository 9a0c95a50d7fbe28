// Seqlock-style snapshot buffer: one writer publishes a fixed-size array of
// 64-bit slots, any number of readers take consistent copies, and the
// writer NEVER blocks — there is no lock to take, only a sequence bump and
// plain stores. A reader that races a publication simply retries.
//
// This is the publication channel between a shard's loop thread (writer)
// and the StatsPublisher thread (reader). The writer side costs two
// RMW-free stores of the sequence word plus N slot stores per publish; a
// reader pays a copy and, rarely, a retry. Every slot is a std::atomic
// written with release stores and read with acquire loads — the variant of
// Boehm's "Can seqlocks get along with programming language memory
// models?" that needs no fences: a reader that sees any slot of a newer
// publication also sees the odd sequence value that opened it, so its
// closing sequence check fails and it retries. On x86 both are plain moves.
// ThreadSanitizer models acquire/release atomics but not fences, so it
// checks this protocol as written.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

namespace msw {

class SeqlockBuf {
 public:
  SeqlockBuf() = default;

  SeqlockBuf(const SeqlockBuf&) = delete;
  SeqlockBuf& operator=(const SeqlockBuf&) = delete;

  /// Size the buffer. Single-threaded setup only (before the first
  /// publish/read); existing contents are discarded.
  void resize(std::size_t slots) {
    buf_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t i = 0; i < slots; ++i) buf_[i].store(0, std::memory_order_relaxed);
    slots_ = slots;
  }

  std::size_t slots() const { return slots_; }

  /// Writer: publish `n` (== slots()) values. Wait-free; single writer.
  void publish(const std::uint64_t* src, std::size_t n) {
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);  // odd: publication open
    // Each release store orders the odd sequence value before the slot.
    for (std::size_t i = 0; i < n; ++i) buf_[i].store(src[i], std::memory_order_release);
    seq_.store(s + 2, std::memory_order_release);  // even: publication closed
  }

  /// Reader: copy a consistent snapshot into `dst`. An attempt that finds a
  /// publication open, or sees one start mid-copy, first backs off —
  /// spinning briefly, then yielding the CPU — so the writer can close it.
  /// Returns false if every attempt raced a publication (only plausible when
  /// the writer publishes back to back); `dst` then holds no certified
  /// image and must be discarded.
  bool read(std::uint64_t* dst, std::size_t n, int max_attempts = 64) const {
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) backoff(attempt);
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // publication in flight
      // Acquire loads keep the closing check below after every slot read.
      for (std::size_t i = 0; i < n; ++i) dst[i] = buf_[i].load(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return true;
    }
    return false;
  }

  /// Number of completed publications (even seq / 2). Any thread.
  std::uint64_t generation() const { return seq_.load(std::memory_order_acquire) / 2; }

 private:
  static void backoff(int attempt) {
    if (attempt < 8) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    } else {
      std::this_thread::yield();
    }
  }

  std::atomic<std::uint64_t> seq_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> buf_;
  std::size_t slots_ = 0;
};

}  // namespace msw
