// PageRank by power iteration over the distributed SpMV — a taste of the
// "GraphBLAS on top of YGM" direction the paper names as future work
// (§VII): the graph kernel is just y = A^T x with a rank-normalizing
// update, and the delegate machinery absorbs the hub columns of the
// scale-free web-like graph.
//
//   ./pagerank [--nodes 2] [--cores 4] [--scale 11] [--edge-factor 8]
//              [--iters 10] [--threshold 64] [--scheme NodeRemote]
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/degree_count.hpp"
#include "apps/spmv.hpp"
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
  const int iters =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "iters", 10));
  const std::uint64_t threshold = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "threshold", 64));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::node_remote);
  constexpr double kDamping = 0.85;

  const ygm::routing::topology topo(nodes, cores);
  const std::uint64_t n = std::uint64_t{1} << scale;
  const std::uint64_t m = n * edge_factor;

  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);
    const ygm::graph::round_robin_partition part{c.size()};
    const ygm::graph::rmat_generator gen(
        scale, m, ygm::graph::rmat_params::webgraph_like(), 404, c.rank(),
        c.size());

    // Column-stochastic link matrix: A[i][j] = 1/outdeg(j) for j -> i.
    // Out-degrees first (Algorithm 1 over the directed source endpoints).
    std::vector<std::uint64_t> outdeg(part.local_count(c.rank(), n), 0);
    {
      ygm::core::mailbox<ygm::graph::vertex_id> mb(
          world, [&](const ygm::graph::vertex_id& v) {
            ++outdeg[part.local_index(v)];
          });
      gen.for_each(
          [&](const ygm::graph::edge& e) { mb.send(part.owner(e.src), e.src); });
      mb.wait_empty();
    }
    // Ship each rank its columns' out-degrees on demand: simplest is a
    // second pass where the column owner normalizes, so build triplets
    // with weight 1 and divide by outdeg at the owner after ingestion —
    // here we instead route (j -> owner(j)) and let owner emit normalized
    // triplets, which dist_spmv then redistributes.
    std::vector<ygm::linalg::triplet> mine;
    {
      ygm::core::mailbox<ygm::graph::edge> mb(
          world, [&](const ygm::graph::edge& e) {
            const auto d = outdeg[part.local_index(e.src)];
            mine.push_back({e.dst, e.src, d > 0 ? 1.0 / static_cast<double>(d)
                                                : 0.0});
          });
      gen.for_each([&](const ygm::graph::edge& e) {
        mb.send(part.owner(e.src), e);
      });
      mb.wait_empty();
    }

    // Delegate the heavy columns (hub pages).
    const auto delegates =
        ygm::graph::select_delegates(world, outdeg, part, threshold);
    ygm::apps::dist_spmv A(world, n, mine, delegates);

    // Power iteration: x <- (1-d)/n + d * A x.
    std::vector<double> x(part.local_count(c.rank(), n),
                          1.0 / static_cast<double>(n));
    const double t0 = c.wtime();
    double delta = 0;
    for (int it = 0; it < iters; ++it) {
      const auto y = A.multiply(x);
      delta = 0;
      for (std::uint64_t j = 0; j < x.size(); ++j) {
        const double next =
            (1.0 - kDamping) / static_cast<double>(n) +
            kDamping * y.local_y[j];
        delta += std::abs(next - x[j]);
        x[j] = next;
      }
      delta = c.allreduce(delta, ygm::mpisim::op_sum{});
    }
    const double wall = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    // Report: total mass (should approach 1 as dangling mass is small) and
    // the largest rank value.
    double mass = 0;
    double local_max = 0;
    for (const auto v : x) {
      mass += v;
      local_max = std::max(local_max, v);
    }
    mass = c.allreduce(mass, ygm::mpisim::op_sum{});
    const auto top = c.allreduce(local_max, ygm::mpisim::op_max{});

    if (c.rank() == 0) {
      std::cout << "pagerank: webgraph-like RMAT scale " << scale
                << " |E|=" << m << " on " << nodes << "x" << cores
                << " ranks, scheme " << ygm::routing::to_string(scheme)
                << "\n";
      std::cout << "  delegated hubs " << delegates.size() << "\n";
      std::cout << "  iterations     " << iters << " (final |dx| = " << delta
                << ")\n";
      std::cout << "  rank mass      " << mass << "\n";
      std::cout << "  max pagerank   " << top << " (" << top * n
                << "x uniform)\n";
      std::cout << "  wall time      " << wall << " s\n";
    }
  });
  return 0;
}
