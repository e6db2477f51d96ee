// Sparse matrix-vector product (paper Algorithm 2), verified against both
// the serial oracle and the CombBLAS-lite 2D baseline.
//
//   ./spmv [--grid 2] [--cores 2] [--scale 10] [--edge-factor 8]
//          [--threshold 32] [--scheme NodeRemote]
//
// The rank count is grid*grid (CombBLAS-lite needs a square grid) and must
// be a multiple of --cores.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "apps/spmv.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"
#include "graph/rmat.hpp"
#include "linalg/combblas_lite.hpp"

int main(int argc, char** argv) {
  const int grid =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "grid", 2));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 2));
  const int scale =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "scale", 10));
  const std::uint64_t edge_factor = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "edge-factor", 8));
  const std::uint64_t threshold = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "threshold", 32));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::node_remote);

  const int ranks = grid * grid;
  if (ranks % cores != 0) {
    std::cerr << "grid*grid must be a multiple of --cores\n";
    return 1;
  }
  const std::uint64_t n = std::uint64_t{1} << scale;
  const std::uint64_t nnz = n * edge_factor;

  ygm::launch({.nranks = ranks}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, cores, scheme);
    const ygm::graph::round_robin_partition part{c.size()};

    // Matrix from an RMAT edge stream; x_i = sin(i) so any index error
    // shows up in the values.
    const ygm::graph::rmat_generator gen(
        scale, nnz, ygm::graph::rmat_params::graph500(), 99, c.rank(),
        c.size());
    std::vector<ygm::linalg::triplet> mine;
    std::vector<std::uint64_t> col_degrees(part.local_count(c.rank(), n), 0);
    gen.for_each([&](const ygm::graph::edge& e) {
      mine.push_back({e.src, e.dst, 1.0 + static_cast<double>(e.src % 3)});
    });

    // Delegate the heavy columns (count column occupancy via Algorithm 1
    // style messages folded into a tiny mailbox).
    ygm::core::mailbox<std::uint64_t> degree_mb(
        world, [&](const std::uint64_t& v) {
          ++col_degrees[part.local_index(v)];
        });
    for (const auto& t : mine) degree_mb.send(part.owner(t.col), t.col);
    degree_mb.wait_empty();
    const auto delegates =
        ygm::graph::select_delegates(world, col_degrees, part, threshold);

    ygm::apps::dist_spmv A(world, n, mine, delegates);
    std::vector<double> x_local(part.local_count(c.rank(), n));
    for (std::uint64_t i = 0; i < x_local.size(); ++i) {
      x_local[i] =
          std::sin(static_cast<double>(part.global_id(c.rank(), i)));
    }

    double t0 = c.wtime();
    const auto res = A.multiply(x_local);
    const auto ygm_wall = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    // CombBLAS-lite on the same matrix and vector.
    ygm::linalg::combblas_lite B(c, n, mine);
    std::vector<double> x_block(B.block_size(B.grid_col()), 0.0);
    if (B.on_diagonal()) {
      for (std::uint64_t i = 0; i < x_block.size(); ++i) {
        x_block[i] = std::sin(
            static_cast<double>(B.block_begin(B.grid_col()) + i));
      }
    }
    t0 = c.wtime();
    const auto y_block = B.spmv(x_block);
    const auto cb_wall = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    // Cross-check the two distributed results entry by entry.
    double max_diff = 0;
    if (B.on_diagonal()) {
      const std::uint64_t r0 = B.block_begin(B.grid_row());
      for (std::uint64_t i = 0; i < y_block.size(); ++i) {
        const std::uint64_t row = r0 + i;
        double ygm_value;
        if (delegates.contains(row)) {
          ygm_value = res.delegate_y[delegates.slot(row)];
        } else if (part.owner(row) == c.rank()) {
          ygm_value = res.local_y[part.local_index(row)];
        } else {
          continue;  // owned by another rank; checked there via symmetry
        }
        max_diff = std::max(max_diff, std::abs(ygm_value - y_block[i]));
      }
    }
    const auto diff = c.allreduce(max_diff, ygm::mpisim::op_max{});

    if (c.rank() == 0) {
      std::cout << "spmv: n=2^" << scale << " nnz=" << nnz << " on " << grid
                << "x" << grid << " ranks (" << cores
                << " cores/node), scheme " << ygm::routing::to_string(scheme)
                << "\n";
      std::cout << "  delegated columns " << delegates.size() << "\n";
      std::cout << "  YGM wall          " << ygm_wall << " s ("
                << res.stats.app_sends << " msgs from rank 0)\n";
      std::cout << "  CombBLAS-lite     " << cb_wall << " s\n";
      std::cout << "  max |YGM - 2D|    " << diff
                << (diff < 1e-9 ? "  (agree)" : "  (MISMATCH!)") << "\n";
    }
  });
  return 0;
}
