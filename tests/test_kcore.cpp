// Tests for asynchronous k-core decomposition (apps/kcore.hpp) and the
// mpisim scan/exscan collectives it motivated.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/kcore.hpp"
#include "core/ygm.hpp"
#include "graph/rmat.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::graph::edge;
using ygm::graph::vertex_id;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

std::vector<edge> slice(const std::vector<edge>& all, int rank, int nranks) {
  std::vector<edge> mine;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(nranks)) == rank) {
      mine.push_back(all[i]);
    }
  }
  return mine;
}

void expect_kcore_matches_oracle(const topology& topo, scheme_kind kind,
                                 const std::vector<edge>& all, vertex_id n,
                                 std::uint64_t k) {
  const auto oracle = ygm::apps::k_core_reference(n, all, k);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, kind);
    const ygm::apps::local_adjacency adj(
        world, slice(all, c.rank(), c.size()), n, /*weighted=*/false);
    const auto res = ygm::apps::k_core(world, adj, k, 256);
    const auto& part = adj.partition();
    for (std::uint64_t j = 0; j < res.in_core.size(); ++j) {
      const vertex_id id = part.global_id(c.rank(), j);
      ASSERT_EQ(res.in_core[j], oracle[id])
          << "vertex " << id << " k=" << k << " scheme "
          << ygm::routing::to_string(kind);
    }
  });
}

// ------------------------------------------------------------ known shapes

TEST(KCore, CliquePlusTailPeelsTheTail) {
  // K5 with a path hanging off vertex 0: the 4-core is exactly the clique.
  std::vector<edge> g;
  for (vertex_id a = 0; a < 5; ++a) {
    for (vertex_id b = a + 1; b < 5; ++b) g.push_back({a, b});
  }
  for (vertex_id v = 5; v < 12; ++v) g.push_back({v - (v == 5 ? 5 : 1), v});
  expect_kcore_matches_oracle(topology(2, 2), scheme_kind::node_remote, g, 12,
                              4);

  // Direct check of the survivor count too.
  ygm::launch({.nranks = 4}, [&](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_remote);
    const ygm::apps::local_adjacency adj(world, slice(g, c.rank(), 4), 12,
                                         false);
    const auto res = ygm::apps::k_core(world, adj, 4);
    EXPECT_EQ(res.survivors, 5u);
  });
}

TEST(KCore, EntireGraphSurvivesAtKZero) {
  std::vector<edge> g{{0, 1}, {2, 3}};
  ygm::launch({.nranks = 4}, [&](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::nlnr);
    const ygm::apps::local_adjacency adj(world, slice(g, c.rank(), 4), 6,
                                         false);
    const auto res = ygm::apps::k_core(world, adj, 0);
    EXPECT_EQ(res.survivors, 6u);
    EXPECT_EQ(res.removal_messages, 0u);
  });
}

TEST(KCore, EverythingPeelsWhenKExceedsMaxDegree) {
  std::vector<edge> g;
  for (vertex_id v = 0; v + 1 < 16; ++v) g.push_back({v, v + 1});
  ygm::launch({.nranks = 4}, [&](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_local);
    const ygm::apps::local_adjacency adj(world, slice(g, c.rank(), 4), 16,
                                         false);
    const auto res = ygm::apps::k_core(world, adj, 3);
    EXPECT_EQ(res.survivors, 0u);
  });
}

TEST(KCore, DeepCascadeCrossesRanks) {
  // A long path 2-core-peels from both ends inward: the cascade depth is
  // ~n/2 and every step crosses ranks under round-robin ownership.
  const vertex_id n = 40;
  std::vector<edge> path;
  for (vertex_id v = 0; v + 1 < n; ++v) path.push_back({v, v + 1});
  expect_kcore_matches_oracle(topology(4, 2), scheme_kind::nlnr, path, n, 2);
}

// ----------------------------------------------------------- random graphs

class KCoreSchemes : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(KCoreSchemes, MatchesOracleAcrossKOnRmat) {
  const int scale = 7;
  const vertex_id n = vertex_id{1} << scale;
  std::vector<edge> all;
  ygm::graph::rmat_generator g(scale, 1200,
                               ygm::graph::rmat_params::graph500(), 44, 0, 1);
  g.for_each([&](const edge& e) { all.push_back(e); });
  for (const std::uint64_t k : {1, 2, 3, 5, 8}) {
    expect_kcore_matches_oracle(topology(2, 3), GetParam(), all, n, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, KCoreSchemes,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

// -------------------------------------------------------------- scan/exscan

TEST(Scan, InclusiveScanAccumulatesPrefixes) {
  ygm::launch({.nranks = 7}, [](sim::comm& c) {
    const int got = c.scan(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(got, (c.rank() + 1) * (c.rank() + 2) / 2);
  });
}

TEST(Scan, ExclusiveScanShiftsByOne) {
  ygm::launch({.nranks = 6}, [](sim::comm& c) {
    const int got = c.exscan(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(got, c.rank() * (c.rank() + 1) / 2);  // rank 0 gets identity 0
  });
}

TEST(Scan, ExscanComputesPartitionOffsets) {
  // The canonical use: each rank owns a variable count; exscan yields its
  // global starting offset.
  ygm::launch({.nranks = 5}, [](sim::comm& c) {
    const std::uint64_t mine = 10 + 3 * static_cast<std::uint64_t>(c.rank());
    const auto offset = c.exscan(mine, sim::op_sum{});
    std::uint64_t expect = 0;
    for (int r = 0; r < c.rank(); ++r) {
      expect += 10 + 3 * static_cast<std::uint64_t>(r);
    }
    EXPECT_EQ(offset, expect);
    // And the total via scan on the last rank.
    const auto inclusive = c.scan(mine, sim::op_sum{});
    EXPECT_EQ(inclusive, expect + mine);
  });
}

TEST(Scan, WorksWithNonCommutativeOp) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    const auto got = c.scan(std::string(1, static_cast<char>('a' + c.rank())),
                            [](const std::string& x, const std::string& y) {
                              return x + y;
                            });
    EXPECT_EQ(got, std::string("abcd").substr(
                       0, static_cast<std::size_t>(c.rank()) + 1));
  });
}

TEST(Scan, SingleRankIsIdentityPassthrough) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    EXPECT_EQ(c.scan(42, sim::op_sum{}), 42);
    EXPECT_EQ(c.exscan(42, sim::op_sum{}, -1), -1);
  });
}

}  // namespace
