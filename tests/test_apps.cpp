// End-to-end tests for the paper's three applications (apps/) against
// serial oracles, across routing schemes and with/without delegates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "apps/spmv.hpp"
#include "core/ygm.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "linalg/csc.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::graph::delegate_set;
using ygm::graph::edge;
using ygm::graph::round_robin_partition;
using ygm::graph::vertex_id;
using ygm::linalg::triplet;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// Regenerate the FULL edge stream locally (generators are deterministic per
// rank), giving every test a serial oracle without communication.
template <class MakeGen>
std::vector<edge> full_edge_list(int nranks, MakeGen&& make) {
  std::vector<edge> all;
  for (int r = 0; r < nranks; ++r) {
    make(r).for_each([&](const edge& e) { all.push_back(e); });
  }
  return all;
}

// ---------------------------------------------------------- degree count

class DegreeCountSchemes : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(DegreeCountSchemes, MatchesSerialOracleOnErdosRenyi) {
  const topology topo(2, 3);
  const vertex_id n = 200;
  const std::uint64_t m = 3000;
  const auto make = [&](int r) {
    return ygm::graph::erdos_renyi_generator(n, m, 17, r, topo.num_ranks());
  };

  std::vector<std::uint64_t> oracle(n, 0);
  for (const auto& e : full_edge_list(topo.num_ranks(), make)) {
    ++oracle[e.src];
    ++oracle[e.dst];
  }

  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, GetParam());
    const auto res =
        ygm::apps::degree_count(world, make(c.rank()), /*capacity=*/512);
    const round_robin_partition part{c.size()};
    ASSERT_EQ(res.local_degrees.size(), part.local_count(c.rank(), n));
    for (std::uint64_t i = 0; i < res.local_degrees.size(); ++i) {
      EXPECT_EQ(res.local_degrees[i], oracle[part.global_id(c.rank(), i)]);
    }
    EXPECT_EQ(res.stats.app_sends, 2 * make(c.rank()).local_edge_count());
  });
}

TEST_P(DegreeCountSchemes, MatchesSerialOracleOnRmat) {
  const topology topo(4, 2);
  const int scale = 8;
  const std::uint64_t m = 4096;
  const auto make = [&](int r) {
    return ygm::graph::rmat_generator(
        scale, m, ygm::graph::rmat_params::graph500(), 23, r,
        topo.num_ranks());
  };

  std::vector<std::uint64_t> oracle(vertex_id{1} << scale, 0);
  for (const auto& e : full_edge_list(topo.num_ranks(), make)) {
    ++oracle[e.src];
    ++oracle[e.dst];
  }

  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, GetParam());
    const auto res = ygm::apps::degree_count(world, make(c.rank()), 1024);
    const round_robin_partition part{c.size()};
    for (std::uint64_t i = 0; i < res.local_degrees.size(); ++i) {
      EXPECT_EQ(res.local_degrees[i], oracle[part.global_id(c.rank(), i)]);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DegreeCountSchemes,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

// ----------------------------------------------------- connected components

/// One rank's share of a CC run, shipped back through launch_collect so
/// the forked backends can report it too.
struct cc_rank_out {
  std::vector<vertex_id> labels;
  std::uint64_t broadcasts = 0;
  std::int32_t passes = 0;

  template <class Ar>
  void serialize(Ar& ar) {
    ar & labels & broadcasts & passes;
  }
};

/// `backend` nullopt defers to YGM_TRANSPORT, like ygm::launch.
std::vector<vertex_id> run_cc(
    const topology& topo, scheme_kind kind, const std::vector<edge>& all_edges,
    vertex_id n, std::uint64_t delegate_threshold,
    std::uint64_t* broadcasts = nullptr, int* passes = nullptr,
    std::optional<ygm::transport::backend_kind> backend = std::nullopt) {
  const ygm::run_options opts{.nranks = topo.num_ranks(), .backend = backend};
  const auto blobs = ygm::launch_collect(opts, [&](sim::comm& c) {
    comm_world world(c, topo, kind);
    const round_robin_partition part{c.size()};

    // Slice the shared edge list round-robin across ranks.
    std::vector<edge> mine;
    for (std::size_t i = 0; i < all_edges.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(c.size())) ==
          c.rank()) {
        mine.push_back(all_edges[i]);
      }
    }

    delegate_set delegates;
    if (delegate_threshold > 0) {
      std::vector<std::uint64_t> degrees(part.local_count(c.rank(), n), 0);
      for (const auto& e : all_edges) {
        for (vertex_id v : {e.src, e.dst}) {
          if (part.owner(v) == c.rank()) ++degrees[part.local_index(v)];
        }
      }
      delegates = ygm::graph::select_delegates(world, degrees, part,
                                               delegate_threshold);
    }

    const auto res = ygm::apps::connected_components(world, mine, n,
                                                     delegates, 1024);
    cc_rank_out out{res.local_labels, res.broadcasts, res.passes};
    std::vector<std::byte> blob;
    ygm::ser::append_bytes(out, blob);
    return blob;
  });

  // Stitch the distributed labelling back together for comparison.
  const round_robin_partition part{topo.num_ranks()};
  std::vector<vertex_id> labels(n, 0);
  std::uint64_t bc_total = 0;
  for (std::size_t r = 0; r < blobs.size(); ++r) {
    const auto out = ygm::ser::from_bytes<cc_rank_out>(
        {blobs[r].data(), blobs[r].size()});
    for (std::uint64_t i = 0; i < out.labels.size(); ++i) {
      labels[part.global_id(static_cast<int>(r), i)] = out.labels[i];
    }
    bc_total += out.broadcasts;
    if (r == 0 && passes != nullptr) *passes = out.passes;
  }
  if (broadcasts != nullptr) *broadcasts = bc_total;
  return labels;
}

TEST(ConnectedComponents, HandlesEmptyGraph) {
  const vertex_id n = 10;
  const auto labels = run_cc(topology(2, 2), scheme_kind::node_local, {}, n, 0);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(labels[v], v);
}

TEST(ConnectedComponents, LabelsChainGraphAcrossManyPasses) {
  // A path graph has maximal diameter: the worst case for the simple
  // pass-until-stable algorithm.
  const vertex_id n = 24;
  std::vector<edge> edges;
  for (vertex_id v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  int passes = 0;
  const auto labels = run_cc(topology(2, 2), scheme_kind::node_remote, edges,
                             n, 0, nullptr, &passes);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(labels[v], 0u);
  EXPECT_GT(passes, 2);  // must actually iterate
}

class CcSchemes : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(CcSchemes, MatchesUnionFindOnRandomRmatGraph) {
  const topology topo(2, 4);
  const int scale = 7;
  const vertex_id n = vertex_id{1} << scale;
  const auto make = [&](int r) {
    return ygm::graph::rmat_generator(
        scale, 1500, ygm::graph::rmat_params::graph500(), 31, r,
        topo.num_ranks());
  };
  const auto all = full_edge_list(topo.num_ranks(), make);
  const auto oracle = ygm::apps::connected_components_reference(n, all);

  // Without delegates.
  EXPECT_EQ(run_cc(topo, GetParam(), all, n, 0), oracle);
  // With aggressively many delegates (threshold 4), exercising broadcasts:
  // every edge class but plain (about 360 delegate-delegate and 2-12 of
  // each one-delegate class per rank). Threshold 48 fills all four
  // classes. On socket and shm the pre-classified ingest records cross
  // process boundaries.
  for (const std::uint64_t threshold : {4, 48}) {
    for (const auto backend :
         {ygm::transport::backend_kind::inproc,
          ygm::transport::backend_kind::socket,
          ygm::transport::backend_kind::shm}) {
      std::uint64_t broadcasts = 0;
      EXPECT_EQ(run_cc(topo, GetParam(), all, n, threshold, &broadcasts,
                       nullptr, backend),
                oracle)
          << ygm::transport::to_string(backend) << " threshold "
          << threshold;
      EXPECT_GT(broadcasts, 0u) << ygm::transport::to_string(backend)
                                << " threshold " << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CcSchemes,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

TEST(ConnectedComponents, LeafMinimumReachesEveryLeafThroughADelegatedHub) {
  // Star around hub 5, the only delegate: leaf 0's label reaches the other
  // leaves only through the hub's replica, so both one-delegate edge
  // classes must arrive intact.
  const vertex_id n = 64;
  std::vector<edge> edges;
  for (vertex_id v = 0; v < n; ++v) {
    if (v != 5) edges.push_back({5, v});
  }
  const auto labels =
      run_cc(topology(2, 2), scheme_kind::node_local, edges, n, 10);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(labels[v], 0u) << v;
}

TEST(ConnectedComponents, RejectsMoreThan2To62Vertices) {
  // Ingest records carry their kind in the top two bits of a vertex id.
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    EXPECT_THROW(ygm::apps::connected_components(
                     world, {}, (vertex_id{1} << 62) + 1, delegate_set{}),
                 ygm::error);
  });
}

TEST(ConnectedComponents, DelegatesReduceLabelTrafficOnSkewedGraphs) {
  // A star graph: every edge touches the hub. Delegating the hub should
  // remove almost all point-to-point label messages.
  const topology topo(2, 2);
  const vertex_id n = 64;
  std::vector<edge> edges;
  for (vertex_id v = 1; v < n; ++v) edges.push_back({0, v});

  std::uint64_t hops_plain = 0;
  std::uint64_t hops_delegated = 0;
  for (int use_delegates = 0; use_delegates < 2; ++use_delegates) {
    ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
      comm_world world(c, topo, scheme_kind::node_local);
      std::vector<edge> mine;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (static_cast<int>(i % 4) == c.rank()) mine.push_back(edges[i]);
      }
      delegate_set delegates;
      if (use_delegates != 0) {
        delegates = delegate_set({0});  // the hub
      }
      const auto res =
          ygm::apps::connected_components(world, mine, n, delegates, 256);
      const auto hops = c.allreduce(res.stats.hops_sent, sim::op_sum{});
      if (c.rank() == 0) {
        (use_delegates != 0 ? hops_delegated : hops_plain) = hops;
      }
    });
  }
  EXPECT_LT(hops_delegated, hops_plain / 2);
}

// ------------------------------------------------------------------ SpMV

class SpmvSchemes : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(SpmvSchemes, MatchesReferenceWithAndWithoutDelegates) {
  const topology topo(2, 3);
  const std::uint64_t n = 120;
  const std::uint64_t nnz = 900;

  // Shared triplet set, skewed so column 0 and row 1 are hubs.
  ygm::xoshiro256 rng(4);
  std::vector<triplet> all;
  for (std::uint64_t k = 0; k < nnz; ++k) {
    std::uint64_t i = rng.below(n);
    std::uint64_t j = rng.below(n);
    if (k % 4 == 0) j = 0;
    if (k % 5 == 0) i = 1;
    all.push_back({i, j, static_cast<double>(1 + rng.below(5))});
  }
  std::vector<double> x(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i % 7) - 3.0;
  }
  const auto ref = ygm::linalg::spmv_reference(n, all, x);

  for (const bool use_delegates : {false, true}) {
    ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
      comm_world world(c, topo, GetParam());
      const round_robin_partition part{c.size()};

      std::vector<triplet> mine;
      for (std::size_t k = 0; k < all.size(); ++k) {
        if (static_cast<int>(k % static_cast<std::size_t>(c.size())) ==
            c.rank()) {
          mine.push_back(all[k]);
        }
      }
      const delegate_set delegates =
          use_delegates ? delegate_set({0, 1}) : delegate_set{};

      ygm::apps::dist_spmv A(world, n, mine, delegates, 512);

      std::vector<double> x_local(part.local_count(c.rank(), n));
      for (std::uint64_t i = 0; i < x_local.size(); ++i) {
        x_local[i] = x[part.global_id(c.rank(), i)];
      }
      const auto res = A.multiply(x_local);

      for (std::uint64_t i = 0; i < res.local_y.size(); ++i) {
        EXPECT_NEAR(res.local_y[i], ref[part.global_id(c.rank(), i)], 1e-9)
            << "row " << part.global_id(c.rank(), i)
            << " delegates=" << use_delegates;
      }
      for (std::uint64_t s = 0; s < delegates.size(); ++s) {
        EXPECT_NEAR(res.delegate_y[s], ref[delegates.id_of_slot(s)], 1e-9);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SpmvSchemes,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

TEST(Spmv, DelegatesEliminateHubMessages) {
  // Dense column 0: without delegates every nonzero in it mails its product;
  // with column 0 delegated all of that work is local.
  const topology topo(2, 2);
  const std::uint64_t n = 64;
  std::vector<triplet> all;
  for (std::uint64_t i = 0; i < n; ++i) all.push_back({i, 0, 1.0});

  std::uint64_t sends_plain = 0;
  std::uint64_t sends_delegated = 0;
  for (const bool use_delegates : {false, true}) {
    ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
      comm_world world(c, topo, scheme_kind::node_remote);
      const round_robin_partition part{c.size()};
      std::vector<triplet> mine;
      for (std::size_t k = 0; k < all.size(); ++k) {
        if (static_cast<int>(k % 4) == c.rank()) mine.push_back(all[k]);
      }
      const delegate_set delegates =
          use_delegates ? delegate_set({0}) : delegate_set{};
      ygm::apps::dist_spmv A(world, n, mine, delegates);
      std::vector<double> x_local(part.local_count(c.rank(), n), 1.0);
      const auto res = A.multiply(x_local);
      const auto sends = c.allreduce(res.stats.app_sends, sim::op_sum{});
      if (c.rank() == 0) {
        (use_delegates ? sends_delegated : sends_plain) = sends;
      }
    });
  }
  EXPECT_EQ(sends_delegated, 0u);
  EXPECT_GT(sends_plain, 0u);
}

TEST(Spmv, RepeatedMultiplicationIsStable) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::nlnr);
    const std::uint64_t n = 32;
    ygm::xoshiro256 rng(6);
    std::vector<triplet> mine;
    for (int k = 0; k < 40; ++k) {
      mine.push_back({rng.below(n), rng.below(n), 1.0});
    }
    ygm::apps::dist_spmv A(world, n, mine, {});
    const round_robin_partition part{c.size()};
    std::vector<double> x(part.local_count(c.rank(), n), 2.0);
    const auto y1 = A.multiply(x);
    const auto y2 = A.multiply(x);
    EXPECT_EQ(y1.local_y, y2.local_y);
  });
}

TEST(Spmv, ValidatesInputLengths) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    ygm::apps::dist_spmv A(world, 10, {}, {});
    std::vector<double> wrong(3, 0.0);
    EXPECT_THROW(A.multiply(wrong), ygm::error);
    c.barrier();
  });
}

}  // namespace
