// Binary output/input archives — the core of the serialization substrate.
//
// The paper uses the cereal library for variable-length messages (§IV-C);
// this is a from-scratch replacement with the same programming model:
//
//   struct my_msg {
//     std::uint64_t   vertex;
//     std::vector<int> path;
//     template <class Archive> void serialize(Archive& ar) {
//       ar & vertex & path;
//     }
//   };
//
// Types are serializable when they are (a) arithmetic or enum, (b) have a
// `template <class A> void serialize(A&)` member, (c) have a free
// `serialize(Archive&, T&)` found by ADL or in ygm::ser (the STL adapters in
// stl.hpp live there), or (d) are trivially copyable (raw-byte fallback).
// Deserialization requires default-constructible element types.
//
// Encoding is little-endian host layout for scalars (this library targets a
// homogeneous cluster, as does MPI's byte-transparent mode), LEB128 varints
// for sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "ser/varint.hpp"

namespace ygm::ser {

class oarchive;
class iarchive;

namespace detail {

template <class T, class Archive>
concept has_member_serialize = requires(T& t, Archive& ar) {
  { t.serialize(ar) };
};

template <class T, class Archive>
concept has_free_serialize = requires(T& t, Archive& ar) {
  // Unqualified call resolved below inside ygm::ser, so this sees both ADL
  // overloads and the STL adapters.
  { serialize(ar, t) };
};

}  // namespace detail

/// Serializing archive: appends a portable binary encoding to a byte vector.
class oarchive {
 public:
  explicit oarchive(std::vector<std::byte>& out) : out_(out) {}

  oarchive(const oarchive&) = delete;
  oarchive& operator=(const oarchive&) = delete;

  /// Serialize v. Chainable: `ar & a & b & c`.
  template <class T>
  oarchive& operator&(const T& v) {
    dispatch(v);
    return *this;
  }

  /// Alias for operator& so cereal-style `ar << a << b` also reads well.
  template <class T>
  oarchive& operator<<(const T& v) {
    return *this & v;
  }

  /// Raw byte append (used by adapters for contiguous trivially-copyable
  /// ranges; avoids per-element dispatch).
  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  void write_size(std::uint64_t n) { varint_encode(n, out_); }

  std::size_t bytes_written() const noexcept { return out_.size(); }

 private:
  // is_bitwise_v (below iarchive) names the branches that end in one raw
  // copy; keep the two in step.
  template <class T>
  void dispatch(const T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      write_raw(&v, sizeof(T));
    } else if constexpr (std::is_enum_v<T>) {
      const auto u = static_cast<std::underlying_type_t<T>>(v);
      write_raw(&u, sizeof(u));
    } else if constexpr (detail::has_member_serialize<const T, oarchive>) {
      const_cast<T&>(v).serialize(*this);
    } else if constexpr (detail::has_member_serialize<T, oarchive>) {
      // serialize() members are conventionally non-const (shared between
      // save and load); output archiving does not mutate.
      const_cast<T&>(v).serialize(*this);
    } else if constexpr (detail::has_free_serialize<T, oarchive>) {
      serialize(*this, const_cast<T&>(v));
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      write_raw(&v, sizeof(T));
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "type is not serializable: add a serialize() member or a "
                    "free serialize(Archive&, T&)");
    }
  }

  std::vector<std::byte>& out_;
};

/// Deserializing archive: consumes bytes from a span. Throws ygm::error on
/// truncated input.
class iarchive {
 public:
  explicit iarchive(std::span<const std::byte> in)
      : p_(in.data()), end_(in.data() + in.size()) {}

  iarchive(const std::byte* begin, const std::byte* end)
      : p_(begin), end_(end) {}

  iarchive(const iarchive&) = delete;
  iarchive& operator=(const iarchive&) = delete;

  template <class T>
  iarchive& operator&(T& v) {
    dispatch(v);
    return *this;
  }

  template <class T>
  iarchive& operator>>(T& v) {
    return *this & v;
  }

  void read_raw(void* data, std::size_t n) {
    YGM_CHECK(remaining() >= n, "truncated archive");
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(data, p_, n);
    p_ += n;
  }

  std::uint64_t read_size() { return varint_decode(p_, end_); }

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  bool exhausted() const noexcept { return p_ == end_; }

  const std::byte* cursor() const noexcept { return p_; }

 private:
  template <class T>
  void dispatch(T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      read_raw(&v, sizeof(T));
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u;
      read_raw(&u, sizeof(u));
      v = static_cast<T>(u);
    } else if constexpr (detail::has_member_serialize<T, iarchive>) {
      v.serialize(*this);
    } else if constexpr (detail::has_free_serialize<T, iarchive>) {
      serialize(*this, v);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      read_raw(&v, sizeof(T));
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "type is not serializable: add a serialize() member or a "
                    "free serialize(Archive&, T&)");
    }
  }

  const std::byte* p_;
  const std::byte* end_;
};

/// True exactly when both archives encode T as its sizeof(T) object bytes —
/// the branches of dispatch() that end in one raw copy: arithmetic types,
/// enums, and trivially copyable types with no member or free serialize().
/// Such a value can be appended with a memcpy and decoded with one, which
/// is what the mailbox's fixed-width record path does (core/mailbox.hpp).
template <class T>
inline constexpr bool is_bitwise_v =
    std::is_arithmetic_v<T> || std::is_enum_v<T> ||
    (std::is_trivially_copyable_v<T> &&
     !detail::has_member_serialize<T, oarchive> &&
     !detail::has_free_serialize<T, oarchive> &&
     !detail::has_member_serialize<T, iarchive> &&
     !detail::has_free_serialize<T, iarchive>);

}  // namespace ygm::ser
