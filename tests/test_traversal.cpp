// Tests for the traversal kernels (BFS, SSSP) and the disjoint-set
// connected components — the Graph500-style workloads the paper cites as
// YGM's production use (§I) plus the Shiloach-Vishkin-style CC it suggests
// (§V-B).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc_disjoint_set.hpp"
#include "apps/connected_components.hpp"
#include "apps/sssp.hpp"
#include "core/ygm.hpp"
#include "graph/rmat.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::graph::edge;
using ygm::graph::vertex_id;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

std::vector<edge> rmat_edges(int scale, std::uint64_t count,
                             std::uint64_t seed) {
  const ygm::graph::rmat_generator g(
      scale, count, ygm::graph::rmat_params::graph500(), seed, 0, 1);
  std::vector<edge> edges;
  g.for_each([&](const edge& e) { edges.push_back(e); });
  return edges;
}

std::vector<edge> slice(const std::vector<edge>& all, int rank, int nranks) {
  std::vector<edge> mine;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(nranks)) == rank) {
      mine.push_back(all[i]);
    }
  }
  return mine;
}

// -------------------------------------------------------------------- BFS

class TraversalSchemes : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(TraversalSchemes, BfsLevelsMatchSerialOracle) {
  const topology topo(2, 4);
  const int scale = 7;
  const vertex_id n = vertex_id{1} << scale;
  const auto all = rmat_edges(scale, 1200, 42);
  const vertex_id root = all.front().src;
  const auto oracle = ygm::apps::bfs_reference(n, all, root);

  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, GetParam());
    const ygm::apps::local_adjacency adj(
        world, slice(all, c.rank(), c.size()), n, /*weighted=*/false);
    const auto res = ygm::apps::bfs(world, adj, root, /*capacity=*/512);
    const auto& part = adj.partition();
    for (std::uint64_t j = 0; j < res.local_levels.size(); ++j) {
      EXPECT_EQ(res.local_levels[j], oracle[part.global_id(c.rank(), j)])
          << "vertex " << part.global_id(c.rank(), j);
    }
  });
}

TEST_P(TraversalSchemes, SsspDistancesMatchDijkstra) {
  const topology topo(2, 3);
  const int scale = 6;
  const vertex_id n = vertex_id{1} << scale;
  const auto all = rmat_edges(scale, 500, 77);
  const vertex_id root = all.front().dst;
  const auto oracle = ygm::apps::sssp_reference(n, all, root);

  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, GetParam());
    const ygm::apps::local_adjacency adj(
        world, slice(all, c.rank(), c.size()), n, /*weighted=*/true);
    const auto res = ygm::apps::sssp(world, adj, root, /*capacity=*/512);
    const auto& part = adj.partition();
    for (std::uint64_t j = 0; j < res.local_distances.size(); ++j) {
      EXPECT_EQ(res.local_distances[j], oracle[part.global_id(c.rank(), j)])
          << "vertex " << part.global_id(c.rank(), j);
    }
  });
}

TEST_P(TraversalSchemes, DisjointSetCcMatchesLabelPropagation) {
  const topology topo(2, 4);
  const int scale = 7;
  const vertex_id n = vertex_id{1} << scale;
  const auto all = rmat_edges(scale, 900, 11);
  const auto oracle = ygm::apps::connected_components_reference(n, all);

  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, GetParam());
    const auto mine = slice(all, c.rank(), c.size());

    // Shiloach-Vishkin-style (disjoint set).
    const auto ds = ygm::apps::connected_components_disjoint_set(
        world, mine, n, /*capacity=*/512);
    // Label propagation (paper's implementation).
    const auto lp = ygm::apps::connected_components(world, mine, n, {},
                                                    /*capacity=*/512);

    const ygm::graph::round_robin_partition part{c.size()};
    ASSERT_EQ(ds.local_labels.size(), lp.local_labels.size());
    for (std::uint64_t j = 0; j < ds.local_labels.size(); ++j) {
      const vertex_id id = part.global_id(c.rank(), j);
      EXPECT_EQ(ds.local_labels[j], oracle[id]) << "vertex " << id;
      EXPECT_EQ(lp.local_labels[j], oracle[id]) << "vertex " << id;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TraversalSchemes,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

// --------------------------------------------------------- special shapes

TEST(Bfs, UnreachedVerticesStayAtSentinel) {
  // Two disconnected cliques; BFS from one must not touch the other.
  std::vector<edge> edges;
  for (vertex_id a = 0; a < 5; ++a) {
    for (vertex_id b = a + 1; b < 5; ++b) edges.push_back({a, b});
  }
  for (vertex_id a = 8; a < 12; ++a) {
    for (vertex_id b = a + 1; b < 12; ++b) edges.push_back({a, b});
  }
  const vertex_id n = 16;
  ygm::launch({.nranks = 4}, [&](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_remote);
    const ygm::apps::local_adjacency adj(world, slice(edges, c.rank(), 4), n,
                                         false);
    const auto res = ygm::apps::bfs(world, adj, /*root=*/0);
    const auto& part = adj.partition();
    for (std::uint64_t j = 0; j < res.local_levels.size(); ++j) {
      const vertex_id id = part.global_id(c.rank(), j);
      if (id < 5) {
        EXPECT_EQ(res.local_levels[j], id == 0 ? 0u : 1u);
      } else {
        EXPECT_EQ(res.local_levels[j], ygm::apps::bfs_unreached);
      }
    }
  });
}

TEST(Bfs, PathGraphLevelsAreDistances) {
  const vertex_id n = 30;
  std::vector<edge> edges;
  for (vertex_id v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  ygm::launch({.nranks = 6}, [&](sim::comm& c) {
    comm_world world(c, 3, scheme_kind::nlnr);
    const ygm::apps::local_adjacency adj(world, slice(edges, c.rank(), 6), n,
                                         false);
    const auto res = ygm::apps::bfs(world, adj, /*root=*/0, 64);
    const auto& part = adj.partition();
    for (std::uint64_t j = 0; j < res.local_levels.size(); ++j) {
      EXPECT_EQ(res.local_levels[j], part.global_id(c.rank(), j));
    }
  });
}

TEST(Sssp, PrefersLongerHopCountWhenCheaper) {
  // Triangle 0-1-2 plus a heavy direct edge: force a two-hop shortest path.
  // Weights are the deterministic synthetic ones; find them first.
  const std::uint32_t w01 = ygm::apps::local_adjacency::weight_of(0, 1);
  const std::uint32_t w12 = ygm::apps::local_adjacency::weight_of(1, 2);
  const std::uint32_t w02 = ygm::apps::local_adjacency::weight_of(0, 2);
  const std::uint64_t expect = std::min<std::uint64_t>(
      w02, static_cast<std::uint64_t>(w01) + w12);

  std::vector<edge> edges{{0, 1}, {1, 2}, {0, 2}};
  ygm::launch({.nranks = 3}, [&](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    const ygm::apps::local_adjacency adj(world, slice(edges, c.rank(), 3), 3,
                                         true);
    const auto res = ygm::apps::sssp(world, adj, 0);
    const auto& part = adj.partition();
    for (std::uint64_t j = 0; j < res.local_distances.size(); ++j) {
      if (part.global_id(c.rank(), j) == 2) {
        EXPECT_EQ(res.local_distances[j], expect);
      }
    }
  });
}

TEST(Traversal, RelaxationCountsAreBoundedAndReported) {
  // Label-correcting BFS may relabel, but the total relaxations can never
  // exceed total messages delivered, and must be at least the number of
  // reached vertices.
  const int scale = 6;
  const vertex_id n = vertex_id{1} << scale;
  const auto all = rmat_edges(scale, 400, 5);
  const auto oracle = ygm::apps::bfs_reference(n, all, all.front().src);
  std::uint64_t reached = 0;
  for (const auto l : oracle) {
    if (l != ygm::apps::bfs_unreached) ++reached;
  }
  ygm::launch({.nranks = 4}, [&](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_local);
    const ygm::apps::local_adjacency adj(world, slice(all, c.rank(), 4), n,
                                         false);
    const auto res = ygm::apps::bfs(world, adj, all.front().src, 256);
    const auto total_relax = c.allreduce(res.relaxations, sim::op_sum{});
    EXPECT_GE(total_relax, reached);
    const auto delivered = c.allreduce(res.stats.deliveries, sim::op_sum{});
    EXPECT_LE(total_relax, delivered);
  });
}

}  // namespace
