// Figure 7: connected-components scaling with delegates and asynchronous
// broadcasts (paper §VI-B).
//
//   (a) weak scaling: RMAT (Graph500) 2^26 vertices + 2^30 edges per node,
//       delegate threshold scaled with the expected max degree; the paper
//       also plots the growth in broadcast operations.
//   (b) strong scaling: 2^30 vertices, 2^34 edges.
//
// Expected shape (paper): NoRoute scales poorly; NodeLocal/NodeRemote win
// below ~128 nodes; NLNR wins beyond. NodeRemote gains over NodeLocal as
// broadcast volume grows (each broadcast costs it C times fewer remote
// messages).
//
// [model] rows use the analytic evaluator plus the closed-form RMAT degree
// tail (graph/degree_model.hpp) to predict delegate counts and broadcast
// volume at paper scale; [executed] rows run the full CC pipeline (degree
// count -> delegate selection -> label propagation with bcast sync) on
// rank-threads.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "bench_util.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "graph/degree_model.hpp"
#include "graph/rmat.hpp"

namespace {

using namespace ygm;

constexpr double kLabelMsgBytes = 14.0;  // vertex + label varints + framing
constexpr double kSyncMsgBytes = 12.0;   // slot + label + framing
constexpr int kModelPasses = 7;          // RMAT diameters are small
constexpr double kImproveRounds = 2.0;   // avg bcast rounds per delegate

void model_scaling(bool weak) {
  const int C = bench::paper_cores_per_node;
  bench::banner(
      std::string("Fig. 7") + (weak ? "a [model] weak" : "b [model] strong") +
          " scaling of connected components, 36 cores/node, mailbox 2^18 B",
      weak ? "RMAT 2^26 verts + 2^30 edges per node; threshold scaled with "
             "expected max degree; broadcast growth per paper Fig. 7a."
           : "RMAT 2^30 verts, 2^34 edges total.");

  bench::table t({"nodes", "scheme", "edges/sec", "delegates", "broadcasts",
                  "time (s)"});
  const auto params = graph::rmat_params::graph500();

  for (const int n : bench::paper_node_counts()) {
    // Weak scaling grows the graph with the machine.
    const int scale =
        weak ? 26 + static_cast<int>(std::lround(std::log2(n))) : 30;
    const double total_edges = weak ? static_cast<double>(n) * (1ULL << 30)
                                    : static_cast<double>(1ULL << 34);
    const double ncores = static_cast<double>(n) * C;

    // Delegate threshold scaled like the expected max degree, anchored so a
    // single node uses threshold 2^12 (a deliberately generous delegate
    // count, as in the paper: "thresholds were chosen to give a larger
    // number of delegates than would typically be desired").
    const graph::rmat_degree_model dm(
        scale, static_cast<std::uint64_t>(total_edges), params);
    const double anchor_scale = weak ? 26 : 30;
    const double threshold =
        4096.0 * std::pow(2 * (params.a + params.b), scale - anchor_scale);
    const double delegates = dm.count_degree_at_least(threshold);
    const double heavy_fraction =
        dm.endpoint_fraction_degree_at_least(threshold);

    // Per pass: every non-delegate edge endpoint sends one label message;
    // delegate-incident endpoints are handled locally and paid for with
    // broadcasts instead.
    const double label_msgs_per_core =
        2.0 * (total_edges / ncores) * (1.0 - heavy_fraction);
    const double bcasts_total = delegates * kImproveRounds * kModelPasses;

    net::traffic_model tm;
    tm.p2p_bytes = label_msgs_per_core * kLabelMsgBytes * kModelPasses;
    tm.p2p_msg_bytes = kLabelMsgBytes;
    tm.bcast_count = bcasts_total / ncores;
    tm.bcast_msg_bytes = kSyncMsgBytes;

    for (const auto kind : routing::all_schemes) {
      if (!bench::scheme_applicable(kind, n)) continue;
      const routing::router r(kind, routing::topology(n, C));
      const auto res = net::evaluate(r, net::network_params::quartz_like(),
                                     bench::paper_mailbox_bytes, tm);
      t.add_row({std::to_string(n), std::string(routing::to_string(kind)),
                 res.total_s > 0
                     ? format_count(total_edges * kModelPasses / res.total_s)
                     : "-",
                 bench::fmt_int(delegates), bench::fmt_int(bcasts_total),
                 bench::fmt(res.total_s)});
    }
  }
  t.print();
}

void executed_scaling(bool weak, int scale_per_rank) {
  bench::banner(
      std::string("Fig. 7") + (weak ? "a" : "b") +
          " [executed] connected components on mpisim rank-threads",
      "Full pipeline: degree count -> delegate selection -> label "
      "propagation with async-bcast replica sync.");

  bench::table t({"nodes x cores", "scheme", "edges", "delegates", "passes",
                  "broadcasts", "wall (s)", "modeled (s)"});

  for (const auto& [nodes, cores] :
       {std::pair{1, 4}, {2, 4}, {4, 4}, {8, 4}}) {
    const routing::topology topo(nodes, cores);
    const int scale =
        weak ? scale_per_rank + static_cast<int>(
                                    std::lround(std::log2(topo.num_ranks())))
             : scale_per_rank + 3;
    const std::uint64_t edges = 8ULL << scale;
    // Threshold scaled with expected max degree, anchored at 64 for the
    // smallest run.
    const auto params = graph::rmat_params::graph500();
    const int anchor =
        weak ? scale_per_rank : scale_per_rank + 3;
    const auto threshold = static_cast<std::uint64_t>(std::lround(
        64.0 * std::pow(2 * (params.a + params.b), scale - anchor)));

    for (const auto kind : routing::all_schemes) {
      double wall = 0;
      std::uint64_t bcasts = 0;
      std::uint64_t ndelegates = 0;
      int passes = 0;
      core::mailbox_stats agg;
      ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
        core::comm_world world(c, topo, kind);
        const graph::rmat_generator gen(scale, edges, params, 31337, c.rank(),
                                        c.size());
        const graph::round_robin_partition part{c.size()};

        const auto deg = apps::degree_count(world, gen);
        const auto delegates = graph::select_delegates(
            world, deg.local_degrees, part, std::max<std::uint64_t>(
                                                threshold, 2));

        std::vector<graph::edge> mine;
        mine.reserve(gen.local_edge_count());
        gen.for_each([&](const graph::edge& e) { mine.push_back(e); });

        c.barrier();
        const double t0 = c.wtime();
        const auto res =
            apps::connected_components(world, mine, gen.num_vertices(),
                                       delegates, /*capacity=*/4096);
        const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
        const auto bc = c.allreduce(res.broadcasts, mpisim::op_sum{});
        const auto stats_rows = c.gather(res.stats, 0);
        if (c.rank() == 0) {
          wall = dt;
          bcasts = bc;
          passes = res.passes;
          ndelegates = delegates.size();
          for (const auto& s : stats_rows) agg += s;
        }
      });
      const double modeled =
          agg.modeled_comm_seconds(net::network_params::quartz_like()) /
          topo.num_ranks();
      t.add_row({std::to_string(nodes) + "x" + std::to_string(cores),
                 std::string(routing::to_string(kind)),
                 std::to_string(edges), std::to_string(ndelegates),
                 std::to_string(passes), std::to_string(bcasts),
                 bench::fmt(wall), bench::fmt(modeled)});
    }
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  const bool weak_only = bench::has_flag(argc, argv, "weak");
  const bool strong_only = bench::has_flag(argc, argv, "strong");
  const int scale_per_rank =
      static_cast<int>(bench::flag_int(argc, argv, "scale-per-rank", 9));

  std::printf("Fig. 7 reproduction: connected components scaling "
              "(paper §VI-B, RMAT/Graph500 graphs, delegates + async "
              "broadcasts)\n");
  if (!strong_only) {
    model_scaling(/*weak=*/true);
    executed_scaling(/*weak=*/true, scale_per_rank);
  }
  if (!weak_only) {
    model_scaling(/*weak=*/false);
    executed_scaling(/*weak=*/false, scale_per_rank);
  }
  return 0;
}
