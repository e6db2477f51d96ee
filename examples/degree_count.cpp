// Degree counting (paper Algorithm 1) on an Erdős–Rényi edge stream.
//
// Demonstrates the paper's minimal YGM application: every edge spawns two
// point-to-point messages; owners count. Prints per-scheme mailbox traffic
// so the coalescing effect of the routing schemes is visible.
//
//   ./degree_count [--nodes 4] [--cores 4] [--scale 14] [--edge-factor 16]
//                  [--scheme NodeRemote] [--capacity 4096]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/degree_count.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 4));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const int scale =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "scale", 14));
  const std::uint64_t edge_factor = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "edge-factor", 16));
  const std::size_t capacity = static_cast<std::size_t>(
      ygm::examples::flag_int(argc, argv, "capacity", 4096));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::node_remote);

  const ygm::routing::topology topo(nodes, cores);
  const std::uint64_t num_vertices = std::uint64_t{1} << scale;
  const std::uint64_t num_edges = num_vertices * edge_factor;

  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);
    const ygm::graph::erdos_renyi_generator gen(num_vertices, num_edges, 42,
                                                c.rank(), c.size());

    const double t0 = c.wtime();
    const auto res = ygm::apps::degree_count(world, gen, capacity);
    const double dt = c.wtime() - t0;

    // Aggregate outcomes.
    const std::uint64_t local_max =
        res.local_degrees.empty()
            ? 0
            : *std::max_element(res.local_degrees.begin(),
                                res.local_degrees.end());
    const auto global_max = c.allreduce(local_max, ygm::mpisim::op_max{});
    std::uint64_t local_sum = 0;
    for (auto d : res.local_degrees) local_sum += d;
    const auto degree_sum = c.allreduce(local_sum, ygm::mpisim::op_sum{});
    const auto remote_bytes =
        c.allreduce(res.stats.remote_bytes, ygm::mpisim::op_sum{});
    const auto remote_packets =
        c.allreduce(res.stats.remote_packets, ygm::mpisim::op_sum{});
    const auto wall = c.allreduce(dt, ygm::mpisim::op_max{});

    if (c.rank() == 0) {
      std::cout << "degree_count: |V|=2^" << scale << " |E|=" << num_edges
                << " on " << nodes << "x" << cores << " ranks, scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "  degree sum   " << degree_sum << " (= 2|E| = "
                << 2 * num_edges << ")\n";
      std::cout << "  max degree   " << global_max << "\n";
      std::cout << "  wall time    " << wall << " s\n";
      std::cout << "  wire traffic " << ygm::format_bytes(
                       static_cast<double>(remote_bytes))
                << " in " << remote_packets << " packets (avg "
                << ygm::format_bytes(remote_packets
                                         ? static_cast<double>(remote_bytes) /
                                               static_cast<double>(
                                                   remote_packets)
                                         : 0.0)
                << ")\n";
    }
  });
  return 0;
}
