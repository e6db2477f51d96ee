// LEB128 variable-length integer encoding.
//
// Used for container sizes and packet headers: the mailbox coalesces many
// small messages into packets, so per-message header bytes directly eat the
// bandwidth that coalescing is trying to save (paper §IV-A). Varints keep
// headers at 1 byte in the common case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace ygm::ser {

/// Append an unsigned LEB128 encoding of v to out. Returns bytes written.
inline std::size_t varint_encode(std::uint64_t v, std::vector<std::byte>& out) {
  std::size_t n = 0;
  do {
    std::uint8_t b = static_cast<std::uint8_t>(v & 0x7fu);
    v >>= 7;
    if (v != 0) b |= 0x80u;
    out.push_back(static_cast<std::byte>(b));
    ++n;
  } while (v != 0);
  return n;
}

/// varint_decode's loop, for values of three or more bytes and for
/// truncated or oversized input.
[[gnu::noinline]] inline std::uint64_t varint_decode_long(
    const std::byte*& p, const std::byte* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    YGM_CHECK(p != end, "truncated varint");
    const auto b = static_cast<std::uint8_t>(*p++);
    YGM_CHECK(shift < 63 || (shift == 63 && (b & 0x7eu) == 0),
              "varint exceeds 64 bits");
    v |= static_cast<std::uint64_t>(b & 0x7fu) << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
  }
}

/// Decode an unsigned LEB128 value from [p, end). Advances p past the
/// encoding. Throws ygm::error on truncated or oversized input.
[[gnu::always_inline]] inline std::uint64_t varint_decode(
    const std::byte*& p, const std::byte* end) {
  // One- and two-byte values (every record header below rank 64, every
  // length below 16 KiB) decode inline, with no loop and no call.
  if (p != end) [[likely]] {
    const auto b0 = static_cast<std::uint8_t>(p[0]);
    if ((b0 & 0x80u) == 0) [[likely]] {
      ++p;
      return b0;
    }
    if (end - p >= 2) {
      const auto b1 = static_cast<std::uint8_t>(p[1]);
      if ((b1 & 0x80u) == 0) {
        p += 2;
        return (b0 & 0x7fu) | (static_cast<std::uint64_t>(b1) << 7);
      }
    }
  }
  return varint_decode_long(p, end);
}

/// Write the minimal LEB128 encoding of v at p (no bounds check — the
/// caller must have reserved varint_size(v) bytes). Returns bytes written.
/// Used to patch a length slot in place after its payload has been
/// serialized (core/packet.hpp's in-place record encoder).
inline std::size_t varint_encode_at(std::uint64_t v, std::byte* p) noexcept {
  std::size_t n = 0;
  do {
    std::uint8_t b = static_cast<std::uint8_t>(v & 0x7fu);
    v >>= 7;
    if (v != 0) b |= 0x80u;
    p[n++] = static_cast<std::byte>(b);
  } while (v != 0);
  return n;
}

/// Number of bytes varint_encode would emit for v.
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >>= 7) ++n;
  return n;
}

/// ZigZag transform so small-magnitude signed values encode small.
constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace ygm::ser
