// Tests for distributed triangle counting (apps/triangle_count.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/triangle_count.hpp"
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

std::uint64_t run_distributed(const topology& topo, scheme_kind kind,
                              const std::vector<edge>& all, vertex_id n) {
  std::uint64_t triangles = 0;
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, kind);
    const auto res = ygm::apps::triangle_count(
        world, slice(all, c.rank(), c.size()), n, 512);
    if (c.rank() == 0) triangles = res.triangles;
  });
  return triangles;
}

// ---------------------------------------------------------- known shapes

TEST(TriangleCount, SingleTriangle) {
  const std::vector<edge> tri{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(run_distributed(topology(2, 2), scheme_kind::node_remote, tri, 3),
            1u);
}

TEST(TriangleCount, PathHasNoTriangles) {
  std::vector<edge> path;
  for (vertex_id v = 0; v + 1 < 20; ++v) path.push_back({v, v + 1});
  EXPECT_EQ(run_distributed(topology(2, 2), scheme_kind::nlnr, path, 20), 0u);
}

TEST(TriangleCount, CompleteGraphHasNChoose3) {
  const vertex_id n = 10;
  std::vector<edge> k;
  for (vertex_id a = 0; a < n; ++a) {
    for (vertex_id b = a + 1; b < n; ++b) k.push_back({a, b});
  }
  // C(10,3) = 120.
  EXPECT_EQ(run_distributed(topology(2, 4), scheme_kind::node_local, k, n),
            120u);
}

TEST(TriangleCount, ParallelEdgesAndSelfLoopsAreIgnored) {
  const std::vector<edge> messy{{0, 1}, {1, 0}, {0, 1}, {1, 2},
                                {2, 0}, {2, 2}, {0, 0}};
  EXPECT_EQ(run_distributed(topology(1, 4), scheme_kind::no_route, messy, 3),
            1u);
}

// ----------------------------------------------------------- random graphs

class TriangleSchemes : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(TriangleSchemes, MatchesSerialOracleOnRmat) {
  const int scale = 7;
  const vertex_id n = vertex_id{1} << scale;
  std::vector<edge> all;
  ygm::graph::rmat_generator g(scale, 1500,
                               ygm::graph::rmat_params::graph500(), 12, 0, 1);
  g.for_each([&](const edge& e) { all.push_back(e); });
  const auto oracle = ygm::apps::triangle_count_reference(n, all);
  EXPECT_GT(oracle, 0u) << "test graph should contain triangles";

  EXPECT_EQ(run_distributed(topology(2, 3), GetParam(), all, n), oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TriangleSchemes,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

TEST(TriangleCount, WedgeCountMatchesDegreeFormula) {
  // wedges = sum over u of C(deg+(u), 2), computable from the oracle's
  // oriented adjacency.
  const vertex_id n = 64;
  std::vector<edge> all;
  ygm::graph::rmat_generator g(6, 400, ygm::graph::rmat_params::uniform(), 2,
                               0, 1);
  g.for_each([&](const edge& e) { all.push_back(e); });

  std::vector<std::set<vertex_id>> adj(n);
  for (const auto& e : all) {
    if (e.src == e.dst) continue;
    adj[std::min(e.src, e.dst)].insert(std::max(e.src, e.dst));
  }
  std::uint64_t expect_wedges = 0;
  for (const auto& nbrs : adj) {
    expect_wedges += nbrs.size() * (nbrs.size() - 1) / 2;
  }

  ygm::launch({.nranks = 4}, [&](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_remote);
    const auto res = ygm::apps::triangle_count(
        world, slice(all, c.rank(), c.size()), n, 256);
    EXPECT_EQ(res.wedges_checked, expect_wedges);
  });
}

}  // namespace
