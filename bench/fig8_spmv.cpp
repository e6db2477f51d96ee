// Figure 8: SpMV scaling, YGM (Algorithm 2, with delegates) vs the
// CombBLAS-lite 2D synchronous baseline (paper §VI-C).
//
//   (a) weak scaling on Graph500 RMAT (0.57/0.19/0.19/0.05), 2^24 vertices
//       per node, edge factor 16, YGM using delegates;
//   (b) growth of the delegate count in (a);
//   (c) the same experiment on uniform RMAT (0.25 x 4), no delegates;
//   (d) strong scaling on the WDC 2012 webgraph — substituted here by a
//       high-skew synthetic graph (DESIGN.md §2) — with the mailbox scaled
//       as 2^10 * N, as the paper found necessary.
//
// Expected shape (paper): CombBLAS wins at small node counts; YGM overtakes
// past ~64 nodes, NLNR best at the largest scales, with or without
// delegates; with the scaled mailbox, 8d shows YGM and CombBLAS tracking
// each other.
//
// Flags: --rmat / --uniform / --web select one study; --scale sets the
// executed problem size.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/spmv.hpp"
#include "bench_util.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "graph/degree_model.hpp"
#include "graph/rmat.hpp"
#include "linalg/combblas_lite.hpp"

namespace {

using namespace ygm;

constexpr double kYMsgBytes = 15.0;   // row varint + 8-byte product + framing
constexpr double kFlopSeconds = 1e-9;  // CSC-streamed sparse multiply-add

// 2D blocks of a matrix spread over q^2 processors become hypersparse
// (fewer nonzeros than rows), so CombBLAS iterates them through DCSC
// indirection — several times the cost of a streamed CSC pass (Buluç &
// Gilbert, cited by the paper) — and skewed graphs additionally imbalance
// the blocks.
constexpr double kDcscFlopSeconds = 3e-9;

// Synchronous 2D SpMV cost on the modeled network: broadcast an x block
// down each grid column and reduce a y block across each row, each a
// log2(q)-deep tree of block-sized transfers on the critical path.
double model_combblas_seconds(double n_total, double nnz_total, int nodes,
                              bool skewed) {
  const auto np = net::network_params::quartz_like();
  const double ncores = static_cast<double>(nodes) *
                        bench::paper_cores_per_node;
  const double q = std::floor(std::sqrt(ncores));
  const double block_bytes = n_total / q * 8.0;
  const double depth = std::max(1.0, std::log2(q));
  const double comm = 2.0 * depth * np.remote.transfer_time(block_bytes);
  const double imbalance = skewed ? 1.5 : 1.15;
  const double compute = nnz_total / ncores * kDcscFlopSeconds * imbalance;
  return comm + compute;
}

double model_ygm_seconds(const routing::router& r, double nnz_total,
                         double heavy_fraction, std::size_t mailbox_bytes) {
  const double ncores =
      static_cast<double>(r.topo().nodes) * r.topo().cores;
  const double nnz_per_core = nnz_total / ncores;
  // A nonzero generates a message only if neither its column (replicated x)
  // nor its row (replicated y) is delegated.
  const double msg_fraction =
      (1.0 - heavy_fraction) * (1.0 - heavy_fraction);
  net::traffic_model tm;
  tm.p2p_bytes = nnz_per_core * msg_fraction * kYMsgBytes;
  tm.p2p_msg_bytes = kYMsgBytes;
  const auto res = net::evaluate(r, net::network_params::quartz_like(),
                                 mailbox_bytes, tm);
  return res.total_s + nnz_per_core * kFlopSeconds;
}

void model_weak(bool skewed) {
  const int C = bench::paper_cores_per_node;
  const auto params = skewed ? graph::rmat_params::graph500()
                             : graph::rmat_params::uniform();
  bench::banner(
      skewed ? "Fig. 8a/8b [model] weak scaling, Graph500 RMAT, YGM with "
               "delegates vs CombBLAS-lite"
             : "Fig. 8c [model] weak scaling, uniform RMAT, no delegates",
      "2^24 vertices per node, edge factor 16, 36 cores/node, mailbox 2^18 "
      "B.");

  bench::table t({"nodes", "delegates", "edges/sec CombBLAS",
                  "edges/sec YGM-NodeRemote", "edges/sec YGM-NLNR"});
  for (const int n : bench::paper_node_counts()) {
    const int scale = 24 + static_cast<int>(std::lround(std::log2(n)));
    const double n_total = static_cast<double>(n) * (1ULL << 24);
    const double nnz_total = 16.0 * n_total;

    double heavy = 0;
    double delegates = 0;
    if (skewed) {
      const graph::rmat_degree_model dm(
          scale, static_cast<std::uint64_t>(nnz_total), params);
      const double threshold =
          4096.0 * std::pow(2 * (params.a + params.b), scale - 24);
      heavy = dm.endpoint_fraction_degree_at_least(threshold);
      delegates = dm.count_degree_at_least(threshold);
    }

    const double cb = model_combblas_seconds(n_total, nnz_total, n, skewed);
    const auto ygm_rate = [&](routing::scheme_kind k) -> std::string {
      if (!bench::scheme_applicable(k, n)) return "-";
      const routing::router r(k, routing::topology(n, C));
      const double s = model_ygm_seconds(r, nnz_total, heavy,
                                         bench::paper_mailbox_bytes);
      return format_count(nnz_total / s);
    };
    t.add_row({std::to_string(n),
               skewed ? bench::fmt_int(delegates) : "0",
               format_count(nnz_total / cb),
               ygm_rate(routing::scheme_kind::node_remote),
               ygm_rate(routing::scheme_kind::nlnr)});
  }
  t.print();
}

void model_web_strong() {
  const int C = bench::paper_cores_per_node;
  const auto params = graph::rmat_params::webgraph_like();
  bench::banner(
      "Fig. 8d [model] strong scaling, webgraph-like graph (WDC 2012 "
      "substitute), mailbox 2^10 * N",
      "Fixed graph: 2^32 vertices, edge factor 30 (the WDC shape); mailbox "
      "capacity grows with the node count, as the paper required.");

  const int scale = 32;
  const double n_total = static_cast<double>(1ULL << scale);
  const double nnz_total = 30.0 * n_total;
  const graph::rmat_degree_model dm(
      scale, static_cast<std::uint64_t>(nnz_total), params);
  const double threshold = 1 << 20;
  const double heavy = dm.endpoint_fraction_degree_at_least(threshold);

  bench::table t({"nodes", "mailbox", "edges/sec CombBLAS",
                  "edges/sec YGM-NLNR (scaled box)",
                  "edges/sec YGM-NLNR (fixed 2^18)"});
  for (const int n : bench::paper_node_counts()) {
    if (n < 32) continue;  // NLNR region, as in the paper's plot
    const std::size_t scaled_box = std::size_t{1} << 10 << static_cast<int>(
                                       std::lround(std::log2(n)));
    const routing::router r(routing::scheme_kind::nlnr,
                            routing::topology(n, C));
    const double cb = model_combblas_seconds(n_total, nnz_total, n, true);
    const double scaled = model_ygm_seconds(r, nnz_total, heavy, scaled_box);
    const double fixed =
        model_ygm_seconds(r, nnz_total, heavy, bench::paper_mailbox_bytes);
    t.add_row({std::to_string(n),
               format_bytes(static_cast<double>(scaled_box)),
               format_count(nnz_total / cb), format_count(nnz_total / scaled),
               format_count(nnz_total / fixed)});
  }
  t.print();
}

// ------------------------------------------------------------- executed

void executed_weak(bool skewed, int base_scale) {
  const auto params = skewed ? graph::rmat_params::graph500()
                             : graph::rmat_params::uniform();
  bench::banner(
      std::string("Fig. 8") + (skewed ? "a/8b" : "c") +
          " [executed] SpMV on mpisim rank-threads, YGM vs CombBLAS-lite",
      "Square grids (CombBLAS-lite requirement); YGM uses NodeRemote "
      "routing.");

  bench::table t({"ranks", "scale", "nnz", "delegates", "YGM wall (s)",
                  "CombBLAS wall (s)", "YGM modeled (s)"});

  for (const auto& [ranks, cores] : {std::pair{4, 2}, {16, 4}}) {
    const int scale = base_scale + (ranks == 16 ? 2 : 0);
    const std::uint64_t n = 1ULL << scale;
    const std::uint64_t nnz = 8 * n;

    double ygm_wall = 0;
    double cb_wall = 0;
    std::uint64_t ndelegates = 0;
    core::mailbox_stats agg;
    ygm::launch({.nranks = ranks}, [&](mpisim::comm& c) {
      core::comm_world world(c, cores, routing::scheme_kind::node_remote);
      const graph::round_robin_partition part{c.size()};
      const graph::rmat_generator gen(scale, nnz, params, 777, c.rank(),
                                      c.size());

      std::vector<linalg::triplet> mine;
      mine.reserve(gen.local_edge_count());
      gen.for_each([&](const graph::edge& e) {
        mine.push_back({e.src, e.dst, 1.0});
      });

      // Delegate selection from column occupancy (skewed mode only).
      graph::delegate_set delegates;
      if (skewed) {
        std::vector<std::uint64_t> coldeg(part.local_count(c.rank(), n), 0);
        core::mailbox<std::uint64_t> colmb(
            world,
            [&](const std::uint64_t& v) { ++coldeg[part.local_index(v)]; });
        for (const auto& tpl : mine) colmb.send(part.owner(tpl.col), tpl.col);
        colmb.wait_empty();
        delegates = graph::select_delegates(world, coldeg, part, 128);
      }

      apps::dist_spmv A(world, n, mine, delegates, /*capacity=*/4096);
      std::vector<double> x(part.local_count(c.rank(), n), 1.0);
      c.barrier();
      double t0 = c.wtime();
      const auto res = A.multiply(x);
      const double dt1 = c.allreduce(c.wtime() - t0, mpisim::op_max{});

      linalg::combblas_lite B(c, n, mine);
      std::vector<double> xb(B.block_size(B.grid_col()), 1.0);
      c.barrier();
      t0 = c.wtime();
      (void)B.spmv(xb);
      const double dt2 = c.allreduce(c.wtime() - t0, mpisim::op_max{});

      const auto stats_rows = c.gather(res.stats, 0);
      if (c.rank() == 0) {
        ygm_wall = dt1;
        cb_wall = dt2;
        ndelegates = delegates.size();
        for (const auto& s : stats_rows) agg += s;
      }
    });
    const double modeled =
        agg.modeled_comm_seconds(net::network_params::quartz_like()) / ranks;
    t.add_row({std::to_string(ranks), std::to_string(scale),
               std::to_string(nnz), std::to_string(ndelegates),
               bench::fmt(ygm_wall), bench::fmt(cb_wall),
               bench::fmt(modeled)});
  }
  t.print();
}

void executed_web_strong(int scale) {
  bench::banner(
      "Fig. 8d [executed] strong scaling on the webgraph-like graph",
      "Fixed graph; rank counts 4 -> 36; mailbox scaled with the node "
      "count.");
  const std::uint64_t n = 1ULL << scale;
  const std::uint64_t nnz = 16 * n;
  const auto params = graph::rmat_params::webgraph_like();

  bench::table t({"ranks", "mailbox", "YGM wall (s)", "CombBLAS wall (s)"});
  for (const auto& [ranks, cores] : {std::pair{4, 2}, {16, 4}, {36, 6}}) {
    const std::size_t capacity = 256u * static_cast<std::size_t>(ranks);
    double ygm_wall = 0;
    double cb_wall = 0;
    ygm::launch({.nranks = ranks}, [&](mpisim::comm& c) {
      core::comm_world world(c, cores, routing::scheme_kind::node_remote);
      const graph::round_robin_partition part{c.size()};
      const graph::rmat_generator gen(scale, nnz, params, 555, c.rank(),
                                      c.size());
      std::vector<linalg::triplet> mine;
      gen.for_each([&](const graph::edge& e) {
        mine.push_back({e.src, e.dst, 1.0});
      });

      apps::dist_spmv A(world, n, mine, {}, capacity);
      std::vector<double> x(part.local_count(c.rank(), n), 1.0);
      c.barrier();
      double t0 = c.wtime();
      (void)A.multiply(x);
      const double dt1 = c.allreduce(c.wtime() - t0, mpisim::op_max{});

      linalg::combblas_lite B(c, n, mine);
      std::vector<double> xb(B.block_size(B.grid_col()), 1.0);
      c.barrier();
      t0 = c.wtime();
      (void)B.spmv(xb);
      const double dt2 = c.allreduce(c.wtime() - t0, mpisim::op_max{});
      if (c.rank() == 0) {
        ygm_wall = dt1;
        cb_wall = dt2;
      }
    });
    t.add_row({std::to_string(ranks),
               format_bytes(static_cast<double>(capacity)),
               bench::fmt(ygm_wall), bench::fmt(cb_wall)});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  const bool rmat = bench::has_flag(argc, argv, "rmat");
  const bool uniform = bench::has_flag(argc, argv, "uniform");
  const bool web = bench::has_flag(argc, argv, "web");
  const bool all = !rmat && !uniform && !web;
  const int scale =
      static_cast<int>(bench::flag_int(argc, argv, "scale", 12));

  std::printf("Fig. 8 reproduction: SpMV scaling, YGM vs CombBLAS-lite "
              "(paper §VI-C)\n");
  if (all || rmat) {
    model_weak(/*skewed=*/true);
    executed_weak(/*skewed=*/true, scale);
  }
  if (all || uniform) {
    model_weak(/*skewed=*/false);
    executed_weak(/*skewed=*/false, scale);
  }
  if (all || web) {
    model_web_strong();
    executed_web_strong(scale);
  }
  return 0;
}
