// Figure 6: degree-counting scaling (paper §VI-A).
//
//   (a) weak scaling: 2^28 vertices and 2^32 edges per node, mailbox 2^18,
//       out to 1024 nodes of 36 cores;
//   (b) strong scaling: 2^32 vertices and 2^37 edges total.
//
// Expected shape (paper): NoRoute collapses past ~4 nodes; NodeLocal and
// NodeRemote track each other (uniform traffic, no broadcasts) and scale to
// ~128 nodes; NLNR costs more at moderate scale (third hop) but keeps
// scaling to 1024 nodes because its packets shrink C times slower.
//
// [model] rows evaluate the full paper scale; [executed] rows run the real
// mailbox on rank-threads at machine-feasible scale and cross-check the
// ordering. Flags: --weak / --strong to select one study, --edges-per-rank,
// --capacity for the executed runs.
#include <cstdio>
#include <string>

#include "apps/degree_count.hpp"
#include "bench_util.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "graph/generators.hpp"

namespace {

using namespace ygm;

// Wire bytes per degree message: 8-byte vertex payload + ~2 bytes of record
// framing (varint header + length).
constexpr double kMsgBytes = 10.0;

void model_scaling(bool weak, const net::network_params& np,
                   const char* machine) {
  const int C = bench::paper_cores_per_node;
  bench::banner(
      std::string("Fig. 6") + (weak ? "a [model] weak" : "b [model] strong") +
          " scaling of degree counting, 36 cores/node, mailbox 2^18 B, " +
          machine + " network",
      weak ? "2^28 vertices + 2^32 edges per node (paper parameters)."
           : "2^32 vertices, 2^37 edges total (paper parameters).");

  bench::table t({"nodes", "scheme", "edges/sec", "avg wire packet",
                  "remote partners/core", "time (s)"});
  for (const int n : bench::paper_node_counts()) {
    const double total_edges =
        weak ? static_cast<double>(n) * 4294967296.0   // 2^32 per node
             : 137438953472.0;                         // 2^37 total
    const double edges_per_core = total_edges / (static_cast<double>(n) * C);
    net::traffic_model tm;
    tm.p2p_bytes = 2.0 * edges_per_core * kMsgBytes;
    tm.p2p_msg_bytes = kMsgBytes;

    for (const auto kind : routing::all_schemes) {
      if (!bench::scheme_applicable(kind, n)) continue;
      const routing::router r(kind, routing::topology(n, C));
      const auto res = net::evaluate(r, np, bench::paper_mailbox_bytes, tm);
      const double time = res.total_s;
      t.add_row({std::to_string(n), std::string(routing::to_string(kind)),
                 time > 0 ? format_count(total_edges / time) : "-",
                 format_bytes(res.remote_packet_bytes),
                 bench::fmt_int(res.max_remote_partners),
                 bench::fmt(time)});
    }
  }
  t.print();
}

void executed_scaling(bool weak, std::uint64_t edges_per_rank,
                      std::size_t capacity) {
  bench::banner(
      std::string("Fig. 6") + (weak ? "a" : "b") +
          " [executed] degree counting on mpisim rank-threads",
      "Wall time is thread-contended on this host. 'simulated' is the "
      "causal virtual-time of the run on the Quartz-like network; 'modeled' "
      "prices the recorded traffic analytically.");

  bench::table t({"nodes x cores", "scheme", "edges", "wall (s)",
                  "simulated (s)", "modeled (s)", "avg wire packet",
                  "wire bytes/rank"});
  const std::uint64_t total_edges_strong = edges_per_rank * 8;

  for (const auto& [nodes, cores] :
       {std::pair{1, 4}, {2, 4}, {4, 4}, {8, 4}}) {
    const routing::topology topo(nodes, cores);
    const std::uint64_t edges =
        weak ? edges_per_rank * static_cast<std::uint64_t>(topo.num_ranks())
             : total_edges_strong;
    const std::uint64_t verts = edges / 16;

    for (const auto kind : routing::all_schemes) {
      double wall = 0;
      double simulated = 0;
      core::mailbox_stats agg;
      ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
        core::comm_world world(c, topo, kind);
        world.attach_virtual_network(net::network_params::quartz_like());
        const graph::erdos_renyi_generator gen(verts, edges, 12345, c.rank(),
                                               c.size());
        c.barrier();
        const double t0 = c.wtime();
        const auto res = apps::degree_count(world, gen, capacity);
        const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
        const double vt = world.virtual_elapsed();
        // Aggregate the traffic counters at rank 0.
        const auto stats_rows = c.gather(res.stats, 0);
        if (c.rank() == 0) {
          wall = dt;
          simulated = vt;
          for (const auto& s : stats_rows) agg += s;
        }
      });
      const auto np = net::network_params::quartz_like();
      const double modeled =
          agg.modeled_comm_seconds(np) / topo.num_ranks();  // per-core avg
      t.add_row({std::to_string(nodes) + "x" + std::to_string(cores),
                 std::string(routing::to_string(kind)),
                 std::to_string(edges), bench::fmt(wall),
                 bench::fmt(simulated), bench::fmt(modeled),
                 format_bytes(agg.avg_remote_packet_bytes()),
                 format_bytes(static_cast<double>(agg.remote_bytes) /
                              topo.num_ranks())});
    }
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  const bool weak_only = bench::has_flag(argc, argv, "weak");
  const bool strong_only = bench::has_flag(argc, argv, "strong");
  const auto edges_per_rank = static_cast<std::uint64_t>(
      bench::flag_int(argc, argv, "edges-per-rank", 1 << 14));
  const auto capacity = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "capacity", 1 << 12));

  const bool bgq = bench::has_flag(argc, argv, "network-bgq");
  const auto np = bgq ? net::network_params::bgq_like()
                      : net::network_params::quartz_like();
  const char* machine = bgq ? "BG/Q-like" : "Quartz-like";

  std::printf("Fig. 6 reproduction: degree counting scaling "
              "(paper §VI-A, Erdős–Rényi edges)\n");
  if (!strong_only) {
    model_scaling(/*weak=*/true, np, machine);
    executed_scaling(/*weak=*/true, edges_per_rank, capacity);
  }
  if (!weak_only) {
    model_scaling(/*weak=*/false, np, machine);
    executed_scaling(/*weak=*/false, edges_per_rank, capacity);
  }
  return 0;
}
