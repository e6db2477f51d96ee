// Connected components with delegates on an RMAT graph (paper §V-B).
//
// Shows the full delegate pipeline: count degrees with Algorithm 1, select
// hubs above a threshold, replicate them, and run label propagation with
// asynchronous broadcasts synchronizing the replicas.
//
//   ./connected_components [--nodes 2] [--cores 4] [--scale 12]
//                          [--edge-factor 8] [--threshold 64]
//                          [--scheme NLNR]
#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"
#include "graph/rmat.hpp"

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 2));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const int scale =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "scale", 12));
  const std::uint64_t edge_factor = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "edge-factor", 8));
  const std::uint64_t threshold = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "threshold", 64));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::nlnr);

  const ygm::routing::topology topo(nodes, cores);
  const std::uint64_t n = std::uint64_t{1} << scale;
  const std::uint64_t m = n * edge_factor;

  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);
    const ygm::graph::rmat_generator gen(
        scale, m, ygm::graph::rmat_params::graph500(), 7, c.rank(), c.size());

    // Phase 1: degrees (Algorithm 1) feed delegate selection.
    const auto degrees = ygm::apps::degree_count(world, gen);
    const ygm::graph::round_robin_partition part{c.size()};
    const auto delegates = ygm::graph::select_delegates(
        world, degrees.local_degrees, part, threshold);

    // Phase 2: label propagation with replica broadcasts.
    std::vector<ygm::graph::edge> mine;
    mine.reserve(gen.local_edge_count());
    gen.for_each([&](const ygm::graph::edge& e) { mine.push_back(e); });

    const double t0 = c.wtime();
    const auto cc = ygm::apps::connected_components(world, mine, n, delegates);
    const double wall = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    // Count components: one per locally owned vertex that is its own label.
    std::uint64_t local_roots = 0;
    for (std::uint64_t i = 0; i < cc.local_labels.size(); ++i) {
      if (cc.local_labels[i] == part.global_id(c.rank(), i)) ++local_roots;
    }
    const auto components = c.allreduce(local_roots, ygm::mpisim::op_sum{});
    const auto broadcasts = c.allreduce(cc.broadcasts, ygm::mpisim::op_sum{});

    // Size of the giant component (vertices labelled with the global
    // minimum label).
    std::uint64_t local_giant = 0;
    std::uint64_t local_min = ~std::uint64_t{0};
    for (const auto l : cc.local_labels) local_min = std::min(local_min, l);
    const auto giant_label = c.allreduce(local_min, ygm::mpisim::op_min{});
    for (const auto l : cc.local_labels) {
      if (l == giant_label) ++local_giant;
    }
    const auto giant = c.allreduce(local_giant, ygm::mpisim::op_sum{});

    if (c.rank() == 0) {
      std::cout << "connected_components: RMAT scale " << scale << ", |E|="
                << m << " on " << nodes << "x" << cores << " ranks, scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "  delegates      " << delegates.size()
                << " (degree >= " << threshold << ")\n";
      std::cout << "  components     " << components << "\n";
      std::cout << "  giant size     " << giant << " vertices\n";
      std::cout << "  passes         " << cc.passes << "\n";
      std::cout << "  broadcasts     " << broadcasts << "\n";
      std::cout << "  wall time      " << wall << " s\n";
    }
  });
  return 0;
}
