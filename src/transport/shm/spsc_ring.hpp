// Bounded SPSC byte ring over a shared mapping — the wire of the shm
// backend. One producer process, one consumer process, no locks:
//
//   * head/tail are free-running 64-bit counters on separate cache lines
//     (the producer only writes tail, the consumer only writes head, so
//     neither invalidates the other's line on its own store).
//   * publication is release/acquire: the producer copies frame bytes into
//     the data area first, then release-stores the advanced tail; a
//     consumer that acquire-loads tail therefore always sees *whole*
//     frames — sizes can never be torn, which is what lets the reader
//     trust a frame header before the rest of the frame "arrives".
//   * tail updates batch: stage() copies bytes at the staged (private)
//     tail, publish() makes everything staged visible with one store —
//     a packet header + payload cross with a single release instead of
//     one synchronizing store per piece.
//   * the consumer frees space the same way in reverse: it reads bytes
//     (copies them out, or lends them in place), then release-stores the
//     advanced head, so a producer that acquire-loads head never
//     overwrites bytes the consumer still reads.
//   * the consumer reads through a mirrored mapping of the data area
//     (map_mirrored: the same pages twice, back to back), so any run of
//     readable bytes — a frame that wraps the end of the ring included —
//     is one contiguous span. Only the producer splits a copy at the wrap.
//
// Parking lives beside the ring, not in it: each doorbell is a 32-bit
// futex word in the same shared mapping (process-shared, so no
// FUTEX_PRIVATE_FLAG), with a parked flag published seq_cst on both sides
// of the Dekker check so a waiter that re-verified emptiness and a waker
// that published work cannot both proceed without one seeing the other.
// Waits are bounded anyway (lost-wake insurance), so a missed doorbell
// costs latency, never liveness.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace ygm::transport::shm {

inline constexpr std::size_t cache_line = 64;

/// Shared-mapping control block of one ring. The data area is placed by the
/// segment layout (it does not have to adjoin this struct); capacity must
/// be a power of two.
struct alignas(cache_line) ring_ctrl {
  /// Producer-owned publication cursor (bytes ever published).
  alignas(cache_line) std::atomic<std::uint64_t> tail;
  /// Consumer-owned consumption cursor (bytes ever consumed).
  alignas(cache_line) std::atomic<std::uint64_t> head;
  /// Doorbell a producer parks on when the ring is full; the consumer bumps
  /// it after freeing space. 32-bit because futexes are.
  alignas(cache_line) std::atomic<std::uint32_t> space_seq;
  /// Raised while the producer waits for room: from its first look at the
  /// full ring until it returns.
  std::atomic<std::uint32_t> producer_parked;
  /// Producer's end-of-stream mark: no further publish will happen.
  std::atomic<std::uint32_t> fin;

  void init() noexcept {
    tail.store(0, std::memory_order_relaxed);
    head.store(0, std::memory_order_relaxed);
    space_seq.store(0, std::memory_order_relaxed);
    producer_parked.store(0, std::memory_order_relaxed);
    fin.store(0, std::memory_order_relaxed);
  }
};
static_assert(sizeof(ring_ctrl) % cache_line == 0);

// ------------------------------------------------------------ futex parking
//
// Thin wrappers over the futex syscall on process-SHARED words (the
// mapping is shared between ranks, so FUTEX_PRIVATE_FLAG would be wrong).
// On non-Linux builds these degrade to a short nanosleep / no-op, keeping
// the ring correct (bounded waits) if not power-efficient.

/// Sleep until *addr != expected or ~timeout_us elapsed or a wake arrives.
void futex_wait(const std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                std::uint32_t timeout_us) noexcept;

/// Wake up to `count` waiters parked on addr.
void futex_wake(const std::atomic<std::uint32_t>* addr, int count) noexcept;

/// Map `bytes` of the shared file `fd` at `offset` read-only twice, back to
/// back, so every run of up to `bytes` bytes that starts in the first copy
/// is contiguous: a ring consumer's view of its data area. `offset` and
/// `bytes` must be multiples of the page size. Returns nullptr on failure;
/// unmap_mirrored() undoes a mapping.
std::byte* map_mirrored(int fd, std::size_t offset, std::size_t bytes) noexcept;
void unmap_mirrored(std::byte* p, std::size_t bytes) noexcept;

// ---------------------------------------------------------------- ring view

/// One side's handle onto a mapped ring: control block + data pointer +
/// capacity. Views are cheap value objects rebuilt per process from the
/// segment layout; all shared state lives behind the pointers.
class ring_view {
 public:
  ring_view() = default;
  /// A producer's `data` is the data area; a consumer's must be its
  /// mirrored mapping (map_mirrored), because consumer reads never split
  /// at the end of the area.
  ring_view(ring_ctrl* ctrl, std::byte* data, std::size_t capacity) noexcept
      : ctrl_(ctrl), data_(data), cap_(capacity), mask_(capacity - 1) {}

  bool valid() const noexcept { return ctrl_ != nullptr; }
  std::size_t capacity() const noexcept { return cap_; }
  ring_ctrl& ctrl() const noexcept { return *ctrl_; }

  // ------------------------------------------------------- producer side
  //
  // Single producer: tail is only ever advanced by this process, so the
  // staged cursor can live in the view between stage() calls.

  /// Bytes the producer may stage right now without overtaking the
  /// consumer (acquire on head so freed space implies the consumer is done
  /// reading those bytes).
  std::size_t free_space() const noexcept {
    const std::uint64_t head = ctrl_->head.load(std::memory_order_acquire);
    return cap_ - static_cast<std::size_t>(staged_tail() - head);
  }

  /// Copy n bytes at the staged tail WITHOUT publishing them. The caller
  /// must have checked free_space() >= n.
  void stage(const void* p, std::size_t n) noexcept {
    copy_in(staged_tail(), p, n);
    staged_ += n;
  }

  /// Unpublished staged bytes.
  std::size_t staged() const noexcept { return staged_; }

  /// Make every staged byte visible to the consumer with one release
  /// store. Returns the number of bytes published.
  std::size_t publish() noexcept {
    const std::size_t n = staged_;
    if (n != 0) {
      ctrl_->tail.store(staged_tail(), std::memory_order_release);
      staged_ = 0;
    }
    return n;
  }

  /// Convenience: stage-and-publish one whole blob if it fits. False (and
  /// nothing visible changes) when the ring lacks space.
  bool try_write(const void* p, std::size_t n) noexcept {
    if (free_space() < n) return false;
    stage(p, n);
    publish();
    return true;
  }

  /// Occupancy as the producer sees it: published-but-unconsumed bytes.
  std::size_t in_flight() const noexcept {
    return static_cast<std::size_t>(
        ctrl_->tail.load(std::memory_order_relaxed) -
        ctrl_->head.load(std::memory_order_acquire));
  }

  void set_fin() noexcept {
    ctrl_->fin.store(1, std::memory_order_release);
  }

  // ------------------------------------------------------- consumer side

  /// Whole-frame bytes available to read (acquire on tail: everything
  /// below it is fully copied in).
  std::size_t readable() const noexcept {
    const std::uint64_t tail = ctrl_->tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head_cursor());
  }

  /// The n bytes starting `offset` bytes past the head cursor, as one span
  /// into the mirrored data area, valid until they are consumed. The
  /// caller must have checked readable() >= offset + n.
  std::span<const std::byte> read_span(std::size_t offset,
                                       std::size_t n) const noexcept {
    const std::size_t off =
        static_cast<std::size_t>(head_cursor() + offset) & mask_;
    return {data_ + off, n};
  }

  /// Copy n bytes starting `offset` bytes past the head cursor, without
  /// consuming.
  void peek(std::size_t offset, void* out, std::size_t n) const noexcept {
    std::memcpy(out, read_span(offset, n).data(), n);
  }

  /// Like peek(), but appends the n bytes to `out`, so each byte of the
  /// vector is written once (no zero-fill ahead of the copy). Reserve the
  /// whole payload first and repeated reads never reallocate.
  void read_append(std::size_t offset, std::size_t n,
                   std::vector<std::byte>& out) const {
    const auto bytes = read_span(offset, n);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }

  /// Free n bytes back to the producer (release so the producer's
  /// acquire-load of head implies we are done reading them).
  void consume(std::size_t n) noexcept {
    ctrl_->head.store(head_cursor() + n, std::memory_order_release);
  }

  bool fin() const noexcept {
    return ctrl_->fin.load(std::memory_order_acquire) != 0;
  }

 private:
  std::uint64_t staged_tail() const noexcept {
    return ctrl_->tail.load(std::memory_order_relaxed) + staged_;
  }
  std::uint64_t head_cursor() const noexcept {
    return ctrl_->head.load(std::memory_order_relaxed);
  }

  void copy_in(std::uint64_t at, const void* p, std::size_t n) noexcept {
    const std::size_t off = static_cast<std::size_t>(at) & mask_;
    const std::size_t first = n < cap_ - off ? n : cap_ - off;
    std::memcpy(data_ + off, p, first);
    if (first < n) {
      std::memcpy(data_, static_cast<const std::byte*>(p) + first, n - first);
    }
  }
  ring_ctrl* ctrl_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::size_t staged_ = 0;  // producer-process-private
};

}  // namespace ygm::transport::shm
