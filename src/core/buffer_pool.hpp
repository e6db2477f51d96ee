// Per-rank packet-buffer pool.
//
// The mailbox hot path cycles one `std::vector<std::byte>` per wire packet:
// the sender fills a coalescing buffer, moves it into the transport
// envelope, and the receiver drains it and drops it. Without recycling,
// every cycle re-pays the buffer's whole geometric growth chain (a fresh
// vector grows 1 KiB -> 2 KiB -> ... -> packet size, copying ~1x the packet
// bytes and calling the allocator ~log2(size) times) plus one free at the
// receiver. This pool keeps drained capacity alive: acquire() pops a
// recycled vector, release() returns one, and in the steady state the
// send->flush->drain cycle performs zero heap allocations per packet.
//
// Ownership protocol (docs/PERF.md has the full lifecycle):
//   * each rank thread owns one pool (thread-local — mpisim ranks are
//     threads, so "per-rank" and "per-thread" coincide);
//   * a packet buffer is acquired from the SENDER's pool, travels by move
//     through envelope/mail_slot, and is released to the RECEIVER's pool —
//     symmetric traffic keeps every pool balanced without any locking;
//   * release() takes the buffer by value: the caller provably holds the
//     last reference, so recycled capacity can never alias an in-flight
//     span (the chaos sweep in tests/test_hotpath.cpp cross-checks this).
//
// Bounded retention: one oversized message must not pin its capacity
// forever (the bug this replaces: `scratch_`/per-hop buffers kept their
// high-water capacity for the life of the mailbox). The pool tracks the
// high-water released size over a sliding two-window history and refuses to
// pool any buffer whose capacity exceeds twice that mark — the oversized
// buffer is freed on release instead of being recycled, so capacity decays
// back to the working set within one window.
//
// The overall pool size is bounded by BYTES (max_retained_bytes), not by a
// small buffer count: ranks are threads sharing cores, so a rank that
// sleeps through a scheduler timeslice wakes to its peers' entire backlog
// and releases thousands of packets in one drain burst. A count cap sized
// for the steady state throws that whole burst away and the next
// timeslice's acquires all miss; a byte budget keeps the burst (its total
// capacity is the working set by definition) while still bounding memory.
//
// Layering note: this header lives in core/ (it is the mailbox's packet
// lifecycle) but depends only on common + telemetry, so the mpisim
// transport below may include it to recycle typed send/recv payloads —
// the one sanctioned upward include (see src/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace ygm::core {

class buffer_pool {
 public:
  /// Total capacity the pool will retain; further releases free their
  /// storage. Sized to absorb a full timeslice burst of small packets.
  static constexpr std::size_t max_retained_bytes = std::size_t{1} << 22;
  /// Metadata bound: most vectors the free-list will hold regardless of
  /// their byte total (keeps the free-list itself from growing unbounded
  /// when packets are tiny). Sized so packets >= 128 B hit the byte
  /// budget first.
  static constexpr std::size_t max_pooled = 32768;
  /// Floor for the retention bound so tiny workloads still recycle.
  static constexpr std::size_t min_retain_bytes = 4096;
  /// Releases per high-water window (two windows of history are kept).
  static constexpr std::uint32_t window_releases = 64;

  /// This thread's pool (one per rank thread; storage dies with the
  /// thread, so consecutive ygm::launch calls never share stale capacity).
  static buffer_pool& local() {
    static thread_local buffer_pool pool;
    return pool;
  }

  /// Pop a recycled buffer (empty, capacity intact). On a miss, returns a
  /// fresh vector reserving `reserve_hint` bytes and counts the allocation
  /// into the `pool.misses`/`alloc.bytes` telemetry counters.
  std::vector<std::byte> acquire(std::size_t reserve_hint = 0) {
    if (!free_.empty()) {
      std::vector<std::byte> buf = std::move(free_.back());
      free_.pop_back();
      pooled_bytes_ -= buf.capacity();
      ++hits_;
      telemetry::add(telemetry::fast_counter::pool_hits);
      return buf;
    }
    ++misses_;
    telemetry::add(telemetry::fast_counter::pool_misses);
    std::vector<std::byte> buf;
    if (reserve_hint != 0) {
      buf.reserve(reserve_hint);
      alloc_bytes_ += reserve_hint;
      telemetry::add(telemetry::fast_counter::alloc_bytes, reserve_hint);
    }
    return buf;
  }

  /// Return a drained buffer's capacity to the pool. The buffer's current
  /// size feeds the high-water tracking, then it is cleared; oversized or
  /// surplus buffers are freed instead of pooled (bounded retention).
  void release(std::vector<std::byte>&& buf) {
    note_release_size(buf.size());
    if (buf.capacity() == 0 || free_.size() >= max_pooled ||
        buf.capacity() > retain_bound() ||
        pooled_bytes_ + buf.capacity() > max_retained_bytes) {
      if (buf.capacity() != 0) ++drops_;
      return;  // freed as `buf` dies
    }
    buf.clear();
    pooled_bytes_ += buf.capacity();
    free_.push_back(std::move(buf));
  }

  /// Largest buffer capacity release() will currently pool (2x the
  /// two-window high-water released size, floored at min_retain_bytes).
  std::size_t retain_bound() const noexcept {
    const std::size_t hw = std::max(window_max_, prev_window_max_);
    return 2 * std::max(hw, min_retain_bytes);
  }

  // --------------------------------------------------------- inspection
  std::size_t pooled() const noexcept { return free_.size(); }
  /// Sum of the pooled buffers' capacities (the byte-budget numerator).
  std::size_t pooled_bytes() const noexcept { return pooled_bytes_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t alloc_bytes() const noexcept { return alloc_bytes_; }
  /// Releases whose storage was freed instead of pooled (bounded retention).
  std::uint64_t drops() const noexcept { return drops_; }

  /// Drop all pooled buffers (tests; also a way to return memory eagerly).
  void trim() {
    free_.clear();
    pooled_bytes_ = 0;
  }

 private:
  void note_release_size(std::size_t n) noexcept {
    window_max_ = std::max(window_max_, n);
    if (++window_count_ >= window_releases) {
      prev_window_max_ = window_max_;
      window_max_ = 0;
      window_count_ = 0;
    }
  }

  std::vector<std::vector<std::byte>> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t alloc_bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::size_t pooled_bytes_ = 0;     ///< sum of free_ capacities
  std::size_t window_max_ = 0;       ///< max released size, current window
  std::size_t prev_window_max_ = 0;  ///< max released size, previous window
  std::uint32_t window_count_ = 0;
};

}  // namespace ygm::core
