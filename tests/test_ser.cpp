// Unit and property tests for the serialization substrate (ser/).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "ser/serialize.hpp"

namespace {

using ygm::ser::from_bytes;
using ygm::ser::to_bytes;

template <class T>
void expect_roundtrip(const T& v) {
  const auto bytes = to_bytes(v);
  const T back = from_bytes<T>(bytes);
  EXPECT_EQ(back, v);
}

// ------------------------------------------------------------- varint

TEST(Varint, EncodesSmallValuesInOneByte) {
  for (std::uint64_t v : {0ULL, 1ULL, 42ULL, 127ULL}) {
    std::vector<std::byte> out;
    EXPECT_EQ(ygm::ser::varint_encode(v, out), 1u);
    EXPECT_EQ(ygm::ser::varint_size(v), 1u);
  }
}

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 ~0ULL};
  for (std::uint64_t v : cases) {
    std::vector<std::byte> out;
    ygm::ser::varint_encode(v, out);
    EXPECT_EQ(out.size(), ygm::ser::varint_size(v));
    const std::byte* p = out.data();
    EXPECT_EQ(ygm::ser::varint_decode(p, out.data() + out.size()), v);
    EXPECT_EQ(p, out.data() + out.size());
  }
}

TEST(Varint, RoundTripsRandomValues) {
  ygm::xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Bias toward small magnitudes, where the encoding boundaries live.
    const int shift = static_cast<int>(rng.below(64));
    const std::uint64_t v = rng() >> shift;
    std::vector<std::byte> out;
    ygm::ser::varint_encode(v, out);
    const std::byte* p = out.data();
    ASSERT_EQ(ygm::ser::varint_decode(p, out.data() + out.size()), v);
  }
}

TEST(Varint, ThrowsOnTruncation) {
  std::vector<std::byte> out;
  ygm::ser::varint_encode(1ULL << 40, out);
  for (std::size_t cut = 0; cut + 1 < out.size(); ++cut) {
    const std::byte* p = out.data();
    EXPECT_THROW(ygm::ser::varint_decode(p, out.data() + cut), ygm::error);
  }
}

TEST(Varint, ZigZagIsAnInvolutionOnRandomInputs) {
  ygm::xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int64_t>(rng());
    EXPECT_EQ(ygm::ser::zigzag_decode(ygm::ser::zigzag_encode(v)), v);
  }
  EXPECT_EQ(ygm::ser::zigzag_encode(0), 0u);
  EXPECT_EQ(ygm::ser::zigzag_encode(-1), 1u);
  EXPECT_EQ(ygm::ser::zigzag_encode(1), 2u);
}

// ------------------------------------------------------------- scalars

TEST(Archive, RoundTripsArithmeticTypes) {
  expect_roundtrip<std::int8_t>(-5);
  expect_roundtrip<std::uint8_t>(250);
  expect_roundtrip<std::int16_t>(-31000);
  expect_roundtrip<std::uint32_t>(4000000000u);
  expect_roundtrip<std::int64_t>(-(1LL << 60));
  expect_roundtrip<float>(3.25f);
  expect_roundtrip<double>(-2.5e300);
  expect_roundtrip<bool>(true);
  expect_roundtrip<bool>(false);
  expect_roundtrip<char>('x');
}

enum class color : std::uint8_t { red = 1, green = 2, blue = 3 };

TEST(Archive, RoundTripsEnums) {
  const auto bytes = to_bytes(color::green);
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(from_bytes<color>(bytes), color::green);
}

TEST(Archive, ChainsWithAmpersand) {
  std::vector<std::byte> buf;
  ygm::ser::oarchive oar(buf);
  oar & 1 & 2.5 & std::string("hi");
  ygm::ser::iarchive iar({buf.data(), buf.size()});
  int a = 0;
  double b = 0;
  std::string c;
  iar & a & b & c;
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2.5);
  EXPECT_EQ(c, "hi");
  EXPECT_TRUE(iar.exhausted());
}

// ----------------------------------------------------------- containers

TEST(Archive, RoundTripsStrings) {
  expect_roundtrip(std::string{});
  expect_roundtrip(std::string("hello world"));
  expect_roundtrip(std::string(10000, 'q'));
  std::string with_nul = "a";
  with_nul.push_back('\0');
  with_nul += "b";
  expect_roundtrip(with_nul);
}

TEST(Archive, RoundTripsVectors) {
  expect_roundtrip(std::vector<int>{});
  expect_roundtrip(std::vector<int>{1, -2, 3});
  expect_roundtrip(std::vector<double>{0.5, -1.5});
  expect_roundtrip(std::vector<std::string>{"a", "", "ccc"});
  expect_roundtrip(std::vector<std::vector<int>>{{1}, {}, {2, 3}});
}

TEST(Archive, TrivialVectorUsesRawFastPath) {
  const std::vector<std::uint32_t> v{1, 2, 3, 4};
  const auto bytes = to_bytes(v);
  // 1 varint length byte + 4 * 4 payload bytes, no per-element overhead.
  EXPECT_EQ(bytes.size(), 1u + 4u * sizeof(std::uint32_t));
}

TEST(Archive, RoundTripsVectorBool) {
  expect_roundtrip(std::vector<bool>{});
  expect_roundtrip(std::vector<bool>{true});
  expect_roundtrip(std::vector<bool>{true, false, true, true, false, false,
                                     true, false, true});  // crosses a byte
  std::vector<bool> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = (i % 3) == 0;
  expect_roundtrip(big);
}

TEST(Archive, RoundTripsSequences) {
  expect_roundtrip(std::deque<int>{5, 6, 7});
  expect_roundtrip(std::list<std::string>{"x", "y"});
}

TEST(Archive, RoundTripsPairsAndTuples) {
  expect_roundtrip(std::pair<int, int>{1, 2});
  expect_roundtrip(std::pair<std::string, int>{"k", 9});
  expect_roundtrip(std::tuple<int, std::string, double>{1, "two", 3.0});
}

TEST(Archive, RoundTripsAssociativeContainers) {
  expect_roundtrip(std::map<int, std::string>{{1, "a"}, {2, "b"}});
  expect_roundtrip(std::unordered_map<std::string, int>{{"x", 1}, {"y", 2}});
  expect_roundtrip(std::set<int>{3, 1, 2});
  expect_roundtrip(std::unordered_set<std::string>{"p", "q"});
  expect_roundtrip(std::map<std::string, std::vector<int>>{{"k", {1, 2}}});
}

TEST(Archive, RoundTripsOptional) {
  expect_roundtrip(std::optional<int>{});
  expect_roundtrip(std::optional<int>{42});
  expect_roundtrip(std::optional<std::string>{"text"});
}

TEST(Archive, RoundTripsVariant) {
  using var = std::variant<std::monostate, int, std::string>;
  expect_roundtrip(var{});
  expect_roundtrip(var{7});
  expect_roundtrip(var{std::string("v")});
}

TEST(Archive, RoundTripsNonTrivialArray) {
  expect_roundtrip(std::array<std::string, 3>{"a", "bb", "ccc"});
}

// ------------------------------------------------------------ user types

struct edge_msg {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  // Trivially copyable: exercised through the raw fallback.
  bool operator==(const edge_msg&) const = default;
};

struct path_msg {
  std::uint64_t target = 0;
  std::vector<std::uint32_t> hops;
  std::string label;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & target & hops & label;
  }

  bool operator==(const path_msg&) const = default;
};

TEST(Archive, RoundTripsTriviallyCopyableUserType) {
  expect_roundtrip(edge_msg{12, 34});
}

TEST(Archive, RoundTripsUserTypeWithMemberSerialize) {
  expect_roundtrip(path_msg{99, {1, 2, 3}, "shortest"});
  expect_roundtrip(std::vector<path_msg>{{1, {2}, "a"}, {3, {}, ""}});
}

namespace other_ns {

struct free_fn_type {
  int a = 0;
  std::string b;
  bool operator==(const free_fn_type&) const = default;
};

template <class Archive>
void serialize(Archive& ar, free_fn_type& v) {
  ar & v.a & v.b;
}

}  // namespace other_ns

TEST(Archive, RoundTripsUserTypeWithAdlFreeSerialize) {
  expect_roundtrip(other_ns::free_fn_type{5, "adl"});
}

// ------------------------------------------------------ bitwise detection
//
// is_bitwise_v holds exactly where the archives write the sizeof(T) object
// bytes. A serialize() of either kind takes a trivially copyable type out.

struct counted_member {
  std::uint32_t a = 0;
  template <class Archive>
  void serialize(Archive& ar) {
    ar & a;
  }
};

namespace other_ns {

struct counted_free {
  std::uint32_t a = 0;
};

template <class Archive>
void serialize(Archive& ar, counted_free& v) {
  ar & v.a;
}

}  // namespace other_ns

static_assert(std::is_trivially_copyable_v<counted_member> &&
              std::is_trivially_copyable_v<other_ns::counted_free>);
static_assert(ygm::ser::is_bitwise_v<std::uint64_t>);
static_assert(ygm::ser::is_bitwise_v<color>);
static_assert(ygm::ser::is_bitwise_v<edge_msg>);
static_assert(!ygm::ser::is_bitwise_v<counted_member>);
static_assert(!ygm::ser::is_bitwise_v<other_ns::counted_free>);
static_assert(!ygm::ser::is_bitwise_v<std::string>);
static_assert(!ygm::ser::is_bitwise_v<std::vector<int>>);
static_assert(!ygm::ser::is_bitwise_v<std::pair<int, int>>);

// --------------------------------------------------------------- errors

TEST(Archive, ThrowsOnTruncatedInput) {
  const auto bytes = to_bytes(std::string("hello"));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::byte> part(bytes.data(), cut);
    EXPECT_THROW(from_bytes<std::string>(part), ygm::error);
  }
}

TEST(Archive, ThrowsOnTrailingBytes) {
  auto bytes = to_bytes(42);
  bytes.push_back(std::byte{0});
  EXPECT_THROW(from_bytes<int>({bytes.data(), bytes.size()}), ygm::error);
}

TEST(Archive, ThrowsOnOversizedContainerLength) {
  // A vector<uint64_t> claiming 2^40 elements in a 9-byte archive.
  std::vector<std::byte> bytes;
  ygm::ser::varint_encode(1ULL << 40, bytes);
  bytes.push_back(std::byte{0});
  EXPECT_THROW(from_bytes<std::vector<std::uint64_t>>(
                   {bytes.data(), bytes.size()}),
               ygm::error);
}

// -------------------------------------------------- take_bytes streaming

TEST(Archive, TakeBytesConsumesSequentialValues) {
  std::vector<std::byte> buf;
  ygm::ser::append_bytes(std::string("first"), buf);
  ygm::ser::append_bytes(std::uint32_t{7}, buf);
  ygm::ser::append_bytes(std::vector<int>{1, 2}, buf);

  std::span<const std::byte> cursor(buf.data(), buf.size());
  EXPECT_EQ(ygm::ser::take_bytes<std::string>(cursor), "first");
  EXPECT_EQ(ygm::ser::take_bytes<std::uint32_t>(cursor), 7u);
  EXPECT_EQ(ygm::ser::take_bytes<std::vector<int>>(cursor),
            (std::vector<int>{1, 2}));
  EXPECT_TRUE(cursor.empty());
}

// -------------------------------------------------------- property sweep

class ArchiveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArchiveProperty, RandomNestedStructuresRoundTrip) {
  ygm::xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    std::map<std::string, std::vector<std::pair<std::uint64_t, std::string>>>
        value;
    const std::size_t keys = rng.below(6);
    for (std::size_t k = 0; k < keys; ++k) {
      std::string key(rng.below(12), 'a');
      for (auto& ch : key) ch = static_cast<char>('a' + rng.below(26));
      auto& vec = value[key];
      const std::size_t n = rng.below(8);
      for (std::size_t i = 0; i < n; ++i) {
        std::string s(rng.below(20), 'x');
        for (auto& ch : s) ch = static_cast<char>(rng.below(256));
        vec.emplace_back(rng(), std::move(s));
      }
    }
    expect_roundtrip(value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

}  // namespace
