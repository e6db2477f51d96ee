// Fuzz and hostile-input tests: the serialization archives and the packet
// reader must reject malformed bytes with ygm::error — never crash, hang,
// or read out of bounds — and the mailbox must survive degenerate message
// shapes (empty payloads, messages far larger than the coalescing
// capacity).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/packet.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ----------------------------------------------------------- archive fuzz

template <class T>
void expect_parse_or_throw(std::span<const std::byte> bytes) {
  try {
    (void)ygm::ser::from_bytes<T>(bytes);
  } catch (const ygm::error&) {
    // rejection is fine; crashing is not
  }
}

class ArchiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArchiveFuzz, RandomBytesNeverCrashDeserialization) {
  ygm::xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::byte> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    const std::span<const std::byte> s(junk.data(), junk.size());
    expect_parse_or_throw<std::string>(s);
    expect_parse_or_throw<std::vector<std::uint64_t>>(s);
    expect_parse_or_throw<std::map<std::string, std::uint32_t>>(s);
    expect_parse_or_throw<std::vector<std::vector<std::string>>>(s);
  }
}

TEST_P(ArchiveFuzz, TruncatedValidArchivesAlwaysThrow) {
  ygm::xoshiro256 rng(GetParam() + 1000);
  for (int iter = 0; iter < 100; ++iter) {
    std::map<std::string, std::vector<std::uint64_t>> value;
    const std::size_t keys = 1 + rng.below(4);
    for (std::size_t i = 0; i < keys; ++i) {
      value[std::string(1 + rng.below(8), static_cast<char>('a' + i))] =
          std::vector<std::uint64_t>(rng.below(6), rng());
    }
    const auto bytes = ygm::ser::to_bytes(value);
    // Any strict prefix must throw (the encoding has no padding).
    const std::size_t cut = rng.below(bytes.size());
    using value_type = std::map<std::string, std::vector<std::uint64_t>>;
    const auto parse_prefix = [&] {
      (void)ygm::ser::from_bytes<value_type>({bytes.data(), cut});
    };
    EXPECT_THROW(parse_prefix(), ygm::error);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveFuzz, ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------ packet fuzz

TEST(PacketFuzz, RandomBytesNeverCrashReader) {
  ygm::xoshiro256 rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::byte> junk(rng.below(48));
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    ygm::core::packet_reader reader({junk.data(), junk.size()});
    try {
      while (!reader.done()) {
        const auto rec = reader.next();
        // Touch the payload to catch bad spans under ASan-like scrutiny.
        std::uint64_t sum = 0;
        for (const auto b : rec.payload) sum += static_cast<std::uint8_t>(b);
        (void)sum;
      }
    } catch (const ygm::error&) {
    }
  }
}

TEST(PacketFuzz, WellFormedPacketsAlwaysRoundTrip) {
  ygm::xoshiro256 rng(88);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::byte> packet;
    std::vector<std::pair<int, std::size_t>> expected;  // (addr, len)
    const std::size_t records = rng.below(10);
    for (std::size_t i = 0; i < records; ++i) {
      const int addr = static_cast<int>(rng.below(1 << 20));
      std::vector<std::byte> payload(rng.below(40));
      ygm::core::packet_append(packet, (rng() & 1) != 0, addr,
                               {payload.data(), payload.size()});
      expected.emplace_back(addr, payload.size());
    }
    ygm::core::packet_reader reader({packet.data(), packet.size()});
    std::size_t i = 0;
    while (!reader.done()) {
      const auto rec = reader.next();
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(rec.addr, expected[i].first);
      EXPECT_EQ(rec.payload.size(), expected[i].second);
      ++i;
    }
    EXPECT_EQ(i, expected.size());
  }
}

// --------------------------------------------------- degenerate messages

struct empty_msg {
  bool operator==(const empty_msg&) const = default;
  template <class Archive>
  void serialize(Archive&) {}
};

TEST(MailboxEdge, EmptyPayloadMessagesDeliver) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    int got = 0;
    mailbox<empty_msg> mb(world, [&](const empty_msg&) { ++got; }, 64);
    for (int d = 0; d < c.size(); ++d) {
      if (d != c.rank()) mb.send(d, empty_msg{});
    }
    mb.send_bcast(empty_msg{});
    mb.wait_empty();
    EXPECT_EQ(got, 2 * (c.size() - 1));
  });
}

TEST(MailboxEdge, MessagesLargerThanCapacityStillFlow) {
  // Capacity is a flush trigger, not a size limit: a message bigger than
  // the whole mailbox must be shipped in its own oversized packet.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    std::size_t got_bytes = 0;
    mailbox<std::string> mb(
        world, [&](const std::string& s) { got_bytes += s.size(); },
        /*capacity=*/128);
    const std::string big(10000, 'z');
    const int dest = (c.rank() + 1) % c.size();
    mb.send(dest, big);
    mb.wait_empty();
    EXPECT_EQ(got_bytes, big.size());
  });
}

TEST(MailboxEdge, ManySmallMessagesUnderTinyCapacity) {
  // Worst-case flush churn: capacity 1 forces an exchange per record, across
  // a routing scheme with forwarding.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t got = 0;
    mailbox<std::uint8_t> mb(world, [&](const std::uint8_t& v) { got += v; },
                             1);
    for (int i = 0; i < 200; ++i) {
      mb.send((c.rank() + 1 + i % (c.size() - 1)) % c.size(), 1);
    }
    mb.wait_empty();
    const auto total = c.allreduce(got, sim::op_sum{});
    EXPECT_EQ(total, 200u * static_cast<std::uint64_t>(c.size()));
  });
}

// Fixed-width records are copied straight into the message on delivery,
// so the payload size is the only guard between a mismatched peer and an
// out-of-bounds read. Every rank builds one mailbox (so the tag blocks
// match), but rank 1's message type is one byte short or long. Records of
// one cache line or less are appended with raw stores, larger ones through
// the archive; both are delivered without it.
template <std::size_t N>
struct raw_bytes {
  std::array<std::uint8_t, N> b{};
};

template <class Own, class Peer>
void launch_with_mismatched_peer() {
  static_assert(ygm::ser::is_bitwise_v<Own> && ygm::ser::is_bitwise_v<Peer>);
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, topology(1, 2), scheme_kind::no_route);
    if (c.rank() == 0) {
      mailbox<Own> mb(world, [](const Own&) {});
      mb.wait_empty();
    } else {
      mailbox<Peer> mb(world, [](const Peer&) {});
      mb.send(0, Peer{});
      mb.wait_empty();
    }
  });
}

TEST(MailboxEdge, MismatchedFixedWidthRecordsAreRejected) {
  using small = raw_bytes<16>;
  EXPECT_THROW((launch_with_mismatched_peer<small, raw_bytes<15>>()),
               ygm::error);
  EXPECT_THROW((launch_with_mismatched_peer<small, raw_bytes<17>>()),
               ygm::error);
  using wide = raw_bytes<1024>;
  EXPECT_THROW((launch_with_mismatched_peer<wide, raw_bytes<1023>>()),
               ygm::error);
  EXPECT_THROW((launch_with_mismatched_peer<wide, raw_bytes<1025>>()),
               ygm::error);
}

TEST(MailboxEdge, InterleavedSendAndBcastStreams) {
  const topology topo(2, 3);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    std::uint64_t p2p = 0;
    std::uint64_t bc = 0;
    mailbox<std::pair<bool, std::uint64_t>> mb(
        world,
        [&](const std::pair<bool, std::uint64_t>& m) {
          (m.first ? bc : p2p) += m.second;
        },
        96);
    ygm::xoshiro256 rng(4 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 60; ++i) {
      if (rng.below(4) == 0) {
        mb.send_bcast({true, 1});
      } else {
        mb.send(static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(c.size()))),
                {false, 1});
      }
    }
    mb.wait_empty();
    const auto sent_bcasts = c.allreduce(mb.stats().app_bcasts, sim::op_sum{});
    const auto got_bc = c.allreduce(bc, sim::op_sum{});
    EXPECT_EQ(got_bc,
              sent_bcasts * static_cast<std::uint64_t>(c.size() - 1));
    const auto sent_p2p = c.allreduce(mb.stats().app_sends, sim::op_sum{});
    const auto got_p2p = c.allreduce(p2p, sim::op_sum{});
    EXPECT_EQ(got_p2p, sent_p2p);
  });
}

}  // namespace
