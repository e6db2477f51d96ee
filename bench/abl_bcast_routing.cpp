// Ablation: broadcast cost per routing scheme (paper §III-C).
//
// A broadcast consumes C*(N-1) remote messages under NoRoute/NodeLocal but
// only N-1 under NodeRemote/NLNR, which push the fan-out into shared
// memory. [executed] floods the real mailbox with broadcasts and reports
// the wire traffic per scheme; [model] prices a broadcast-heavy workload at
// paper scale.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"

namespace {

using namespace ygm;

void executed_flood() {
  const routing::topology topo(4, 4);
  constexpr int kBcasts = 500;
  bench::banner(
      "[executed] broadcast flood on 4x4 rank-threads, " +
          std::to_string(kBcasts) + " broadcasts per rank",
      "Every rank broadcasts; the tree structure behind each formula is "
      "verified exhaustively in tests/test_routing.cpp.");
  bench::table t({"scheme", "remote msgs/bcast (formula)", "wire bytes",
                  "wire packets", "local bytes", "wall (s)"});
  for (const auto kind : routing::all_schemes) {
    double wall = 0;
    core::mailbox_stats agg;
    ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
      core::comm_world world(c, topo, kind);
      std::uint64_t sink = 0;
      core::mailbox<std::uint64_t> mb(
          world, [&](const std::uint64_t& v) { sink += v; }, 4096);
      c.barrier();
      const double t0 = c.wtime();
      for (int i = 0; i < kBcasts; ++i) {
        mb.send_bcast(static_cast<std::uint64_t>(i));
      }
      mb.wait_empty();
      const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
      const auto stats_rows = c.gather(mb.stats(), 0);
      if (c.rank() == 0) {
        wall = dt;
        for (const auto& s : stats_rows) agg += s;
      }
    });
    const routing::router r(kind, topo);
    t.add_row({std::string(routing::to_string(kind)),
               std::to_string(r.bcast_remote_messages()),
               format_bytes(static_cast<double>(agg.remote_bytes)),
               std::to_string(agg.remote_packets),
               format_bytes(static_cast<double>(agg.local_bytes)),
               bench::fmt(wall)});
  }
  t.print();
}

void model_flood() {
  const int C = bench::paper_cores_per_node;
  bench::banner(
      "[model] broadcast-heavy workload at paper scale",
      "10^4 broadcasts of 64 B per core, 36 cores/node; NodeRemote/NLNR "
      "push the C-fold fan-out into shared memory.");
  bench::table t({"nodes", "scheme", "wire bytes/core", "time (s)"});
  net::traffic_model tm;
  tm.bcast_count = 1e4;
  tm.bcast_msg_bytes = 64;
  const auto np = net::network_params::quartz_like();
  for (const int n : {32, 256, 1024}) {
    for (const auto kind : routing::all_schemes) {
      if (!bench::scheme_applicable(kind, n)) continue;
      const routing::router r(kind, routing::topology(n, C));
      const auto res = net::evaluate(r, np, bench::paper_mailbox_bytes, tm);
      t.add_row({std::to_string(n), std::string(routing::to_string(kind)),
                 format_bytes(res.remote_bytes), bench::fmt(res.total_s)});
    }
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  (void)argc;
  (void)argv;
  std::printf("Ablation: broadcast routing cost (paper §III-C)\n");
  executed_flood();
  model_flood();
  return 0;
}
