// Graph500-style traversal runs: BFS and SSSP kernels over an RMAT graph,
// reporting TEPS (traversed edges per second) with the harmonic mean over
// roots, as the benchmark specifies. The paper cites YGM carrying LLNL's
// Graph500 submission on Sierra (§I); this example is that workload in
// miniature.
//
//   ./graph500_traversal [--nodes 2] [--cores 4] [--scale 10]
//                        [--edge-factor 16] [--roots 2] [--scheme NLNR]
//
// The defaults finish in seconds: SSSP here is label-correcting
// (Bellman-Ford style, apps/sssp.hpp), so its re-relaxations, not the
// runtime, grow fast with the scale.
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/sssp.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"
#include "graph/rmat.hpp"

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 2));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const int scale =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "scale", 10));
  const std::uint64_t edge_factor = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "edge-factor", 16));
  const int nroots =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "roots", 2));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::nlnr);

  const ygm::routing::topology topo(nodes, cores);
  const std::uint64_t n = std::uint64_t{1} << scale;
  const std::uint64_t m = n * edge_factor;

  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);
    const ygm::graph::rmat_generator gen(
        scale, m, ygm::graph::rmat_params::graph500(), 2026, c.rank(),
        c.size());
    std::vector<ygm::graph::edge> mine;
    mine.reserve(gen.local_edge_count());
    gen.for_each([&](const ygm::graph::edge& e) { mine.push_back(e); });

    // Kernel 1 equivalent: build the distributed graph once.
    const double tb0 = c.wtime();
    const ygm::apps::local_adjacency adj(world, mine, n, /*weighted=*/true);
    const double build = c.allreduce(c.wtime() - tb0, ygm::mpisim::op_max{});

    // Roots: deterministic pseudo-random vertices (skip isolated ones by
    // retrying with the scramble).
    double bfs_inv_teps = 0;
    double sssp_inv_teps = 0;
    std::uint64_t reached_total = 0;
    for (int r = 0; r < nroots; ++r) {
      const ygm::graph::vertex_id root =
          ygm::splitmix64(0xabc0 + static_cast<std::uint64_t>(r)) % n;

      double t0 = c.wtime();
      const auto b = ygm::apps::bfs(world, adj, root);
      const double bfs_wall =
          c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

      t0 = c.wtime();
      const auto s = ygm::apps::sssp(world, adj, root);
      const double sssp_wall =
          c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

      // Traversed edges: degree sum of reached vertices / 2 approximated by
      // counting relaxation fan-out; Graph500 counts input edges within the
      // reached component.
      std::uint64_t reached = 0;
      for (const auto l : b.local_levels) {
        if (l != ygm::apps::bfs_unreached) ++reached;
      }
      reached = c.allreduce(reached, ygm::mpisim::op_sum{});
      reached_total += reached;
      const double traversed =
          static_cast<double>(m) * (static_cast<double>(reached) /
                                    static_cast<double>(n));
      bfs_inv_teps += bfs_wall / traversed;
      sssp_inv_teps += sssp_wall / traversed;

      if (c.rank() == 0) {
        std::cout << "  root " << root << ": reached " << reached
                  << " vertices, BFS " << bfs_wall << " s, SSSP "
                  << sssp_wall << " s\n";
      }
    }

    if (c.rank() == 0) {
      std::cout << "graph500_traversal: RMAT scale " << scale << " |E|=" << m
                << " on " << nodes << "x" << cores << " ranks, scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "  graph build   " << build << " s\n";
      std::cout << "  harmonic-mean BFS  TEPS "
                << ygm::format_count(nroots / bfs_inv_teps) << "\n";
      std::cout << "  harmonic-mean SSSP TEPS "
                << ygm::format_count(nroots / sssp_inv_teps) << "\n";
    }
  });
  return 0;
}
