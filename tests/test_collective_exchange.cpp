// Tests for the synchronous ALLTOALLV exchange variant (paper §III-A),
// across all schemes and machine shapes, cross-checked against the
// asynchronous mailbox on identical traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/collective_exchange.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::collective_exchange;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

struct machine_case {
  scheme_kind kind;
  int nodes;
  int cores;
};

std::vector<machine_case> machine_cases() {
  std::vector<machine_case> cases;
  for (auto kind : ygm::routing::all_schemes) {
    for (auto [n, c] : {std::pair{1, 1}, {1, 4}, {2, 2}, {2, 4}, {4, 2},
                        {3, 3}, {4, 4}}) {
      cases.push_back({kind, n, c});
    }
  }
  return cases;
}

class CollectiveExchangeMachines
    : public ::testing::TestWithParam<machine_case> {};

TEST_P(CollectiveExchangeMachines, DeliversRandomTrafficExactlyOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    collective_exchange<std::uint64_t> ex(world);

    ygm::xoshiro256 rng(11 + static_cast<std::uint64_t>(c.rank()));
    std::vector<std::pair<int, std::uint64_t>> outgoing;
    std::vector<std::uint64_t> count_to(static_cast<std::size_t>(c.size()), 0);
    std::vector<std::uint64_t> sum_to(static_cast<std::size_t>(c.size()), 0);
    const int sends = 100 + static_cast<int>(rng.below(100));
    for (int i = 0; i < sends; ++i) {
      const int dest =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
      const std::uint64_t value = rng() >> 16;
      outgoing.emplace_back(dest, value);
      ++count_to[static_cast<std::size_t>(dest)];
      sum_to[static_cast<std::size_t>(dest)] += value;
    }

    const auto delivered = ex.exchange(std::move(outgoing));

    const auto expect_count = c.allreduce_vec(count_to, sim::op_sum{});
    const auto expect_sum = c.allreduce_vec(sum_to, sim::op_sum{});
    EXPECT_EQ(delivered.size(),
              expect_count[static_cast<std::size_t>(c.rank())]);
    std::uint64_t sum = 0;
    for (const auto v : delivered) sum += v;
    EXPECT_EQ(sum, expect_sum[static_cast<std::size_t>(c.rank())]);
  });
}

TEST_P(CollectiveExchangeMachines, RepeatedExchangesStayConsistent) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    collective_exchange<int> ex(world);
    for (int round = 0; round < 3; ++round) {
      // Everyone sends its rank to every rank (including itself).
      std::vector<std::pair<int, int>> outgoing;
      for (int d = 0; d < c.size(); ++d) outgoing.emplace_back(d, c.rank());
      auto got = ex.exchange(std::move(outgoing));
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got.size(), static_cast<std::size_t>(c.size()));
      for (int r = 0; r < c.size(); ++r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)], r);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CollectiveExchangeMachines,
    ::testing::ValuesIn(machine_cases()),
    [](const ::testing::TestParamInfo<machine_case>& info) {
      return std::string(ygm::routing::to_string(info.param.kind)) + "_N" +
             std::to_string(info.param.nodes) + "_C" +
             std::to_string(info.param.cores);
    });

TEST(CollectiveExchange, VariableLengthMessagesSurvivePhases) {
  const topology topo(2, 4);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    collective_exchange<std::string> ex(world);
    std::vector<std::pair<int, std::string>> outgoing;
    for (int d = 0; d < c.size(); ++d) {
      outgoing.emplace_back(
          d, std::string(static_cast<std::size_t>(c.rank() * 10 + d), 'x'));
    }
    const auto got = ex.exchange(std::move(outgoing));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(c.size()));
    std::vector<std::size_t> lens;
    for (const auto& s : got) lens.push_back(s.size());
    std::sort(lens.begin(), lens.end());
    for (int s = 0; s < c.size(); ++s) {
      EXPECT_EQ(lens[static_cast<std::size_t>(s)],
                static_cast<std::size_t>(s * 10 + c.rank()));
    }
  });
}

TEST(CollectiveExchange, AgreesWithMailboxOnIdenticalTraffic) {
  const topology topo(2, 4);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);

    std::uint64_t mailbox_sum = 0;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { mailbox_sum += v; });
    collective_exchange<std::uint64_t> ex(world);

    ygm::xoshiro256 rng(71 + static_cast<std::uint64_t>(c.rank()));
    std::vector<std::pair<int, std::uint64_t>> outgoing;
    for (int i = 0; i < 200; ++i) {
      const int dest =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
      const std::uint64_t v = rng() >> 40;
      outgoing.emplace_back(dest, v);
      mb.send(dest, v);
    }
    mb.wait_empty();

    const auto delivered = ex.exchange(std::move(outgoing));
    std::uint64_t collective_sum = 0;
    for (const auto v : delivered) collective_sum += v;
    EXPECT_EQ(collective_sum, mailbox_sum);
  });
}

TEST(CollectiveExchange, RejectsInvalidDestination) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    collective_exchange<int> ex(world);
    std::vector<std::pair<int, int>> bad{{5, 1}};
    EXPECT_THROW(ex.exchange(std::move(bad)), ygm::error);
  });
}

}  // namespace
