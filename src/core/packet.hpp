// Coalesced-packet wire format.
//
// A packet is what one mailbox flush sends to one next-hop rank: a sequence
// of message records, each carrying enough addressing for the receiver to
// deliver or forward it. Message coalescing (paper §IV-A) lives here — the
// per-record overhead is one or two varint bytes in the common case, so
// bundling thousands of small messages into one MPI-level send amortizes
// both network latency and metadata.
//
// Record layout:
//   varint header  h = (addr << 1) | is_bcast
//                  addr = final destination rank (p2p) or origin rank (bcast)
//   varint len     payload byte count
//   len bytes      serialized message payload
//
// Trace annotations: causal tracing (telemetry/causal.hpp) piggybacks a
// trace context of causal::wire_ctx_bytes (24) bytes on sampled messages as
// an ordinary record addressed to the reserved rank `packet_trace_escape`,
// placed immediately before the message record it annotates. Readers that
// predate (or disable) tracing skip it as an undeliverable record; with
// tracing compiled out no escape record is ever appended, so unsampled
// packets are byte-identical to the pre-tracing format.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "ser/archive.hpp"
#include "ser/varint.hpp"

namespace ygm::core {

/// Reserved p2p address for trace-annotation records. No real rank may use
/// it (mailboxes assert world size stays below it), so a record addressed
/// here is unambiguously metadata about the record that follows.
inline constexpr int packet_trace_escape = (1 << 30) - 1;

/// Reserved p2p address for credit-return records (flow control). The
/// payload is one little-endian u64: how many bytes the sender of this
/// packet has consumed from packets the receiving link previously sent it.
/// Unlike trace escapes this record stands alone (it annotates the link,
/// not a neighbouring record) and is consumed where received — never
/// forwarded.
inline constexpr int packet_credit_escape = packet_trace_escape - 1;

/// Decoded view of one record inside a packet (payload not copied).
struct packet_record {
  bool is_bcast = false;
  int addr = -1;  ///< destination rank (p2p) or origin rank (bcast)
  std::span<const std::byte> payload;
  /// The whole record as encoded: header, length and payload. A relay
  /// sends the same (addr, is_bcast, payload) on, so it appends these
  /// bytes verbatim instead of re-encoding them.
  std::span<const std::byte> encoded;
};

/// True if `rec` is a trace annotation for the next record, not a message.
inline bool packet_record_is_trace(const packet_record& rec) noexcept {
  return !rec.is_bcast && rec.addr == packet_trace_escape;
}

/// True if `rec` is a link-level credit return, not a message.
inline bool packet_record_is_credit(const packet_record& rec) noexcept {
  return !rec.is_bcast && rec.addr == packet_credit_escape;
}

/// Append one record to a packet under construction.
inline void packet_append(std::vector<std::byte>& packet, bool is_bcast,
                          int addr, std::span<const std::byte> payload) {
  YGM_ASSERT(addr >= 0);
  const std::uint64_t header =
      (static_cast<std::uint64_t>(addr) << 1) | (is_bcast ? 1u : 0u);
  ser::varint_encode(header, packet);
  ser::varint_encode(payload.size(), packet);
  packet.insert(packet.end(), payload.begin(), payload.end());
}

/// Where an in-place append landed its payload inside the packet.
struct packet_inplace_result {
  std::size_t payload_offset = 0;  ///< first payload byte, as a packet index
  std::size_t payload_size = 0;    ///< serialized payload byte count
};

/// Append one record, serializing the payload directly into the packet —
/// the zero-copy counterpart of packet_append. `serialize_payload` is any
/// callable appending the payload bytes to the vector it is given (e.g.
/// `ser::append_bytes(m, out)`); its size need not be known up front.
///
/// A length slot sized for `len_hint` is reserved between the header and
/// the payload, then patched with the minimal varint once the true size is
/// known; when the guess was wrong the payload is shifted by the width
/// difference. The encoding is therefore byte-identical to packet_append
/// for every (addr, is_bcast, payload) — callers feed the previous record's
/// size back as the hint so steady streams of same-sized messages never
/// shift. Returns the payload's final position and size (the position is
/// valid until the next packet mutation).
template <class SerializeFn>
packet_inplace_result packet_append_inplace(std::vector<std::byte>& packet,
                                            bool is_bcast, int addr,
                                            std::size_t len_hint,
                                            SerializeFn&& serialize_payload) {
  YGM_ASSERT(addr >= 0);
  const std::uint64_t header =
      (static_cast<std::uint64_t>(addr) << 1) | (is_bcast ? 1u : 0u);
  ser::varint_encode(header, packet);
  const std::size_t slot_at = packet.size();
  const std::size_t slot_width = ser::varint_size(len_hint);
  packet.resize(slot_at + slot_width);
  const std::size_t payload_at = packet.size();
  serialize_payload(packet);
  YGM_ASSERT(packet.size() >= payload_at);
  const std::size_t len = packet.size() - payload_at;
  const std::size_t width = ser::varint_size(len);
  if (width != slot_width) {
    if (width > slot_width) packet.resize(packet.size() + (width - slot_width));
    std::memmove(packet.data() + slot_at + width, packet.data() + payload_at,
                 len);
    if (width < slot_width) packet.resize(slot_at + width + len);
  }
  ser::varint_encode_at(len, packet.data() + slot_at);
  return {slot_at + width, len};
}

/// A packet under construction: a pooled vector plus a fill mark. The
/// vector's elements past the mark are spare room, grown one fixed chunk at
/// a time, so appending a record is one compare (room), raw stores and
/// commit, never a vector growth per record. The spare room is sized,
/// zero-filled elements, not reserved capacity: every store lands inside
/// size(), where ASan's container-overflow checks and _GLIBCXX_ASSERTIONS
/// see it.
///
/// Appenders that grow a vector themselves (packet_append for the escape
/// records, packet_append_inplace) work on vec(), which gives the spare
/// room up, and call sync() after. take() hands the packet on trimmed to
/// the mark, so the wire bytes are exactly the appended ones.
class packet_builder {
 public:
  /// Spare room added per growth.
  static constexpr std::size_t chunk_bytes = 4096;

  /// Bytes appended so far.
  std::size_t size() const noexcept { return mark_; }
  bool empty() const noexcept { return mark_ == 0; }
  /// 0 until adopt(), and again after take().
  std::size_t capacity() const noexcept { return vec_.capacity(); }
  /// The appended bytes; valid until this builder's next room(), vec()
  /// or take().
  std::span<const std::byte> bytes() const noexcept {
    return {vec_.data(), mark_};
  }

  /// Build the next packet in `storage`, an empty (pooled) vector.
  void adopt(std::vector<std::byte> storage) noexcept {
    vec_ = std::move(storage);
    vec_.clear();
    mark_ = 0;
  }

  /// At least `n` writable bytes at the fill mark; commit() appends them.
  [[gnu::always_inline]] std::byte* room(std::size_t n) {
    if (vec_.size() - mark_ < n) [[unlikely]] grow(n);
    return vec_.data() + mark_;
  }
  /// Append the first `n` bytes written at room()'s pointer.
  void commit(std::size_t n) noexcept { mark_ += n; }

  /// Append `bytes` verbatim; they must not lie in this builder.
  void append(std::span<const std::byte> bytes) {
    std::memcpy(room(bytes.size()), bytes.data(), bytes.size());
    commit(bytes.size());
  }

  /// The vector, trimmed to the mark, for appenders that grow it
  /// themselves; sync() after.
  std::vector<std::byte>& vec() noexcept {
    trim();
    return vec_;
  }
  /// Take what was appended to vec() into the packet.
  void sync() noexcept { mark_ = vec_.size(); }

  /// The finished packet, trimmed to the mark. Leaves the builder empty
  /// and without storage (adopt() gives it new storage).
  std::vector<std::byte> take() noexcept {
    trim();
    mark_ = 0;
    return std::exchange(vec_, {});
  }

 private:
  void trim() noexcept {
    if (mark_ < vec_.size()) {
      vec_.erase(vec_.begin() + static_cast<std::ptrdiff_t>(mark_),
                 vec_.end());
    }
  }
  [[gnu::noinline]] void grow(std::size_t n) {
    vec_.resize(mark_ + std::max(n, chunk_bytes));
  }

  std::vector<std::byte> vec_;
  std::size_t mark_ = 0;  ///< appended bytes; vec_.size() - mark_ is spare
};

/// Append one record whose payload is the object bytes of `v` — the
/// archive's encoding of a ser::is_bitwise_v type — with one room check
/// and raw stores. Byte-identical to packet_append(…, ser::to_bytes(v)).
template <class T>
void packet_append_bitwise(packet_builder& packet, bool is_bcast, int addr,
                           const T& v) {
  static_assert(ser::is_bitwise_v<T>, "payload type is not bitwise");
  YGM_ASSERT(addr >= 0);
  constexpr std::size_t len_width = ser::varint_size(sizeof(T));
  // The room asked for is a constant: the widest header of any address.
  constexpr std::size_t max_bytes =
      ser::varint_size(
          (std::uint64_t{std::numeric_limits<int>::max()} << 1) | 1u) +
      len_width + sizeof(T);
  const std::uint64_t header =
      (static_cast<std::uint64_t>(addr) << 1) | (is_bcast ? 1u : 0u);
  std::byte* const start = packet.room(max_bytes);
  std::byte* p = start;
  p += ser::varint_encode_at(header, p);
  p += ser::varint_encode_at(sizeof(T), p);
  std::memcpy(p, &v, sizeof(T));
  packet.commit(static_cast<std::size_t>(p - start) + sizeof(T));
}

/// Upper bound on the encoded size of one record (for capacity accounting).
constexpr std::size_t packet_record_size(int addr,
                                         std::size_t payload_bytes) noexcept {
  return ser::varint_size(static_cast<std::uint64_t>(addr) << 1) +
         ser::varint_size(payload_bytes) + payload_bytes;
}

/// Streaming reader over a received packet.
class packet_reader {
 public:
  explicit packet_reader(std::span<const std::byte> packet)
      : p_(packet.data()), end_(packet.data() + packet.size()) {}

  bool done() const noexcept { return p_ == end_; }

  // Always inlined: the mailbox's record loop runs it once per record, and
  // GCC otherwise keeps it out of line there.
  [[gnu::always_inline]] packet_record next() {
    const std::byte* const start = p_;
    const std::uint64_t header = ser::varint_decode(p_, end_);
    const std::uint64_t len = ser::varint_decode(p_, end_);
    YGM_CHECK(len <= static_cast<std::uint64_t>(end_ - p_),
              "truncated packet record");
    packet_record rec;
    rec.is_bcast = (header & 1u) != 0;
    rec.addr = static_cast<int>(header >> 1);
    rec.payload = std::span<const std::byte>(p_, static_cast<std::size_t>(len));
    p_ += len;
    rec.encoded = std::span<const std::byte>(start, p_);
    return rec;
  }

 private:
  const std::byte* p_;
  const std::byte* end_;
};

}  // namespace ygm::core
