// Ablation: mailbox capacity (the paper's Fig. 8d observation).
//
// With a fixed mailbox, average wire-packet size shrinks as the machine
// grows until coalescing stops paying; the paper had to scale the mailbox
// as 2^10 * N to keep the WDC SpMV scaling. This ablation isolates that
// effect: [model] sweeps capacity at a fixed large machine, [executed]
// sweeps capacity for the real mailbox under uniform traffic.
#include <cstdio>
#include <string>

#include "apps/degree_count.hpp"
#include "bench_util.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "graph/generators.hpp"

namespace {

using namespace ygm;

void model_sweep() {
  const int nodes = 256;
  const int C = bench::paper_cores_per_node;
  bench::banner(
      "[model] mailbox capacity sweep, NodeRemote on 256 nodes x 36 cores",
      "Uniform all-to-all, 256 MiB per core; packet size is the mailbox's "
      "share per partner.");
  net::traffic_model tm;
  tm.p2p_bytes = 256.0 * 1024 * 1024;
  tm.p2p_msg_bytes = 10;
  const routing::router r(routing::scheme_kind::node_remote,
                          routing::topology(nodes, C));
  bench::table t({"mailbox", "avg wire packet", "wire bw achieved",
                  "time (s)"});
  const auto np = net::network_params::quartz_like();
  for (std::size_t cap = 1 << 12; cap <= (std::size_t{1} << 24); cap <<= 2) {
    const auto res = net::evaluate(r, np, cap, tm);
    t.add_row({format_bytes(static_cast<double>(cap)),
               format_bytes(res.remote_packet_bytes),
               format_rate(np.remote.bandwidth(res.remote_packet_bytes)),
               bench::fmt(res.total_s)});
  }
  t.print();

  bench::banner(
      "[model] fixed 2^18 vs scaled 2^10*N mailbox across machine sizes",
      "NodeRemote, 256 MiB per core; the scaled mailbox holds packet sizes "
      "steady as N grows.");
  bench::table s({"nodes", "fixed: packet", "fixed: time (s)",
                  "scaled: packet", "scaled: time (s)"});
  for (const int n : bench::paper_node_counts()) {
    const routing::router rr(routing::scheme_kind::node_remote,
                             routing::topology(n, C));
    const auto fixed = net::evaluate(rr, np, bench::paper_mailbox_bytes, tm);
    const auto scaled = net::evaluate(
        rr, np, static_cast<std::size_t>(1024) * static_cast<std::size_t>(n),
        tm);
    s.add_row({std::to_string(n), format_bytes(fixed.remote_packet_bytes),
               bench::fmt(fixed.total_s),
               format_bytes(scaled.remote_packet_bytes),
               bench::fmt(scaled.total_s)});
  }
  s.print();
}

void executed_sweep() {
  bench::banner("[executed] mailbox capacity sweep, degree counting on 4x4 "
                "rank-threads, NodeRemote",
                "Same workload at every capacity; watch the wire packet "
                "size and flush count move.");
  const routing::topology topo(4, 4);
  const std::uint64_t edges = 1 << 17;
  bench::table t({"mailbox", "flushes", "avg wire packet", "wall (s)",
                  "modeled (s)"});
  for (std::size_t cap : {std::size_t{64}, std::size_t{512},
                          std::size_t{4096}, std::size_t{32768},
                          std::size_t{262144}}) {
    double wall = 0;
    core::mailbox_stats agg;
    ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
      core::comm_world world(c, topo, routing::scheme_kind::node_remote);
      const graph::erdos_renyi_generator gen(edges / 16, edges, 99, c.rank(),
                                             c.size());
      c.barrier();
      const double t0 = c.wtime();
      const auto res = apps::degree_count(world, gen, cap);
      const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
      const auto stats_rows = c.gather(res.stats, 0);
      if (c.rank() == 0) {
        wall = dt;
        for (const auto& s : stats_rows) agg += s;
      }
    });
    const double modeled =
        agg.modeled_comm_seconds(net::network_params::quartz_like()) /
        topo.num_ranks();
    t.add_row({format_bytes(static_cast<double>(cap)),
               std::to_string(agg.flushes),
               format_bytes(agg.avg_remote_packet_bytes()), bench::fmt(wall),
               bench::fmt(modeled)});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  (void)argc;
  (void)argv;
  std::printf("Ablation: mailbox capacity vs coalescing effectiveness "
              "(paper Fig. 8d discussion)\n");
  model_sweep();
  executed_sweep();
  return 0;
}
