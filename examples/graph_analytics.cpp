// Graph-analytics tour: one RMAT graph, five kernels, one communication
// layer. Runs degree statistics (Algorithm 1), connected components (both
// the paper's label propagation and the disjoint-set alternative it
// suggests), triangle counting, and k-core decomposition over the same
// comm_world — the HavoqGT-style workload mix the paper positions YGM
// under (§I).
//
//   ./graph_analytics [--nodes 2] [--cores 4] [--scale 11] [--edge-factor 8]
//                     [--k 4] [--scheme NLNR]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/cc_disjoint_set.hpp"
#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "apps/kcore.hpp"
#include "apps/triangle_count.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"
#include "graph/rmat.hpp"

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 2));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const int scale =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "scale", 11));
  const std::uint64_t edge_factor = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "edge-factor", 8));
  const std::uint64_t k = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "k", 4));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::nlnr);

  const ygm::routing::topology topo(nodes, cores);
  const std::uint64_t n = std::uint64_t{1} << scale;
  const std::uint64_t m = n * edge_factor;

  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);
    const ygm::graph::rmat_generator gen(
        scale, m, ygm::graph::rmat_params::graph500(), 606, c.rank(),
        c.size());
    std::vector<ygm::graph::edge> mine;
    mine.reserve(gen.local_edge_count());
    gen.for_each([&](const ygm::graph::edge& e) { mine.push_back(e); });

    // 1. Degrees (Algorithm 1).
    double t0 = c.wtime();
    const auto deg = ygm::apps::degree_count(world, gen);
    const double t_deg = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});
    const std::uint64_t local_max =
        deg.local_degrees.empty()
            ? 0
            : *std::max_element(deg.local_degrees.begin(),
                                deg.local_degrees.end());
    const auto max_degree = c.allreduce(local_max, ygm::mpisim::op_max{});

    // 2a. Connected components, label propagation (no delegates here;
    //     see the connected_components example for the delegate pipeline).
    t0 = c.wtime();
    const auto cc = ygm::apps::connected_components(world, mine, n, {});
    const double t_cc = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    // 2b. Connected components, disjoint-set (Shiloach-Vishkin style).
    t0 = c.wtime();
    const auto ds = ygm::apps::connected_components_disjoint_set(world, mine, n);
    const double t_ds = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});
    bool agree = cc.local_labels == ds.local_labels;
    agree = c.allreduce(static_cast<int>(agree), ygm::mpisim::op_land{}) != 0;

    // 3. Triangles.
    t0 = c.wtime();
    const auto tri = ygm::apps::triangle_count(world, mine, n);
    const double t_tri = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    // 4. k-core.
    const ygm::apps::local_adjacency adj(world, mine, n, /*weighted=*/false);
    t0 = c.wtime();
    const auto core = ygm::apps::k_core(world, adj, k);
    const double t_core = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    if (c.rank() == 0) {
      std::cout << "graph_analytics: RMAT scale " << scale << " |E|=" << m
                << " on " << nodes << "x" << cores << " ranks, scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "  max degree       " << max_degree << "  (" << t_deg
                << " s)\n";
      std::cout << "  components (LP)  " << "passes=" << cc.passes << "  ("
                << t_cc << " s)\n";
      std::cout << "  components (DS)  " << ds.components << "  (" << t_ds
                << " s)  labels agree: " << (agree ? "yes" : "NO") << "\n";
      std::cout << "  triangles        " << tri.triangles << " from "
                << tri.wedges_checked << " wedges  (" << t_tri << " s)\n";
      std::cout << "  " << k << "-core size      " << core.survivors
                << " vertices, " << core.removal_messages
                << " cascade msgs  (" << t_core << " s)\n";
    }
  });
  return 0;
}
