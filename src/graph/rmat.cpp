#include "graph/rmat.hpp"

#include "graph/generators.hpp"

namespace ygm::graph {

vertex_id scramble_vertex(vertex_id v, int scale) noexcept {
  const vertex_id mask = (scale >= 64) ? ~vertex_id{0}
                                       : ((vertex_id{1} << scale) - 1);
  // Two rounds of (xor-shift, odd multiply), each a bijection mod 2^scale.
  v &= mask;
  v ^= v >> (scale / 2 + 1);
  v = (v * 0x9e3779b97f4a7c15ULL) & mask;
  v ^= v >> (scale / 2 + 1);
  v = (v * 0xc2b2ae3d27d4eb4fULL) & mask;
  return v & mask;
}

rmat_generator::rmat_generator(int scale, std::uint64_t num_edges,
                               rmat_params params, std::uint64_t seed,
                               int rank, int nranks)
    : scale_(scale),
      local_edges_(erdos_renyi_generator::slice(num_edges, rank, nranks)),
      params_(params),
      rng_seed_(splitmix64(seed ^ (0xabcdULL + static_cast<std::uint64_t>(
                                                   rank)))) {
  YGM_CHECK(scale >= 1 && scale <= 62, "rmat scale out of range");
  const double sum = params.a + params.b + params.c + params.d;
  YGM_CHECK(sum > 0.999 && sum < 1.001, "rmat probabilities must sum to 1");
}

edge rmat_generator::sample(xoshiro256& rng) const {
  vertex_id row = 0;
  vertex_id col = 0;
  double a = params_.a;
  double b = params_.b;
  double c = params_.c;
  for (int level = 0; level < scale_; ++level) {
    double la = a;
    double lb = b;
    double lc = c;
    if (params_.noise) {
      // Graph500-style per-level noise: +-5% jitter, renormalized.
      const double na = la * (0.95 + 0.1 * rng.uniform());
      const double nb = lb * (0.95 + 0.1 * rng.uniform());
      const double nc = lc * (0.95 + 0.1 * rng.uniform());
      const double nd =
          (1.0 - la - lb - lc) * (0.95 + 0.1 * rng.uniform());
      const double norm = na + nb + nc + nd;
      la = na / norm;
      lb = nb / norm;
      lc = nc / norm;
    }
    // Quadrants a | b | c | d split [0, 1) at la, la + lb and
    // (la + lb) + lc; keep that association, the edge stream is pinned
    // (graph/rmat.hpp). c and d set the row bit, b and d the column bit.
    // `&` and `|`, not `&&` and `||`: GCC 12 compiles those to branches
    // here, and the quadrant is random at every level.
    const double u = rng.uniform();
    const double ab = la + lb;
    const double abc = ab + lc;
    const bool row_bit = u >= ab;
    const bool col_bit = ((u >= la) & !row_bit) | (u >= abc);
    row = (row << 1) | row_bit;
    col = (col << 1) | col_bit;
  }
  if (params_.scramble) {
    row = scramble_vertex(row, scale_);
    col = scramble_vertex(col, scale_);
  }
  return edge{row, col};
}

}  // namespace ygm::graph
