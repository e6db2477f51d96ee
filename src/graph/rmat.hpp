// RMAT recursive-matrix graph generator (Chakrabarti, Zhan & Faloutsos),
// parameterized like the Graph500 reference generator the paper uses for
// its connected-components and SpMV experiments (Figs. 7-8).
//
// An edge is drawn by descending `scale` levels of the 2^scale x 2^scale
// adjacency matrix, choosing a quadrant with probabilities (a, b, c, d) at
// each level. Skewed parameters (Graph500's 0.57/0.19/0.19/0.05) yield the
// power-law degree distributions that create the computation and
// communication imbalance the paper's delegates address; uniform parameters
// (0.25 x 4) reproduce an Erdős–Rényi-like graph (used by Fig. 8c).
// Vertex ids are scrambled by a bit-mixing bijection so high-degree
// vertices are not clustered at small ids.
//
// Sampler contract: `(scale, params, seed, rank, nranks)` names one edge
// stream, bit for bit. Any rewrite of `sample` must make the same RNG
// draws in the same order and the same floating-point operations in the
// same association (no reciprocal-multiply, reassociation or FMA).
// `Rmat.EdgeStreamMatchesPinnedDigests` (tests/test_graph.cpp) pins the
// stream for the three presets below, with noise and scrambling on and
// off, at scales 1-62; its digests hold for x86-64 baseline code without
// FMA. The quadrant at each level is chosen by comparisons turned into
// bits rather than by a branch: the choice is random, so a branch on it
// mispredicts at a large share of the 16+ levels of every edge.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graph/edge.hpp"

namespace ygm::graph {

struct rmat_params {
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;  // Graph500 defaults
  bool scramble = true;
  bool noise = true;  ///< jitter quadrant probabilities per level (Graph500
                      ///< style) to avoid exact self-similarity artifacts

  static rmat_params graph500() { return {}; }
  /// Fig. 8c's uniform setting: an ER-like graph from the RMAT machinery.
  static rmat_params uniform() { return {0.25, 0.25, 0.25, 0.25, true, false}; }
  /// High-skew parameters standing in for the WDC 2012 webgraph's degree
  /// distribution (Fig. 8d substitute; see DESIGN.md §2).
  static rmat_params webgraph_like() {
    return {0.63, 0.17, 0.17, 0.03, true, true};
  }
};

/// A bijective bit-mixer on [0, 2^scale): two rounds of xor-shift and odd
/// multiplication, all invertible mod 2^scale.
vertex_id scramble_vertex(vertex_id v, int scale) noexcept;

class rmat_generator {
 public:
  /// 2^scale vertices; `num_edges` spread across ranks round-robin.
  rmat_generator(int scale, std::uint64_t num_edges, rmat_params params,
                 std::uint64_t seed, int rank, int nranks);

  vertex_id num_vertices() const noexcept { return vertex_id{1} << scale_; }
  std::uint64_t local_edge_count() const noexcept { return local_edges_; }
  int scale() const noexcept { return scale_; }

  template <class F>
  void for_each(F&& fn) const {
    xoshiro256 rng(rng_seed_);
    for (std::uint64_t i = 0; i < local_edges_; ++i) {
      fn(sample(rng));
    }
  }

  /// Draw a single edge (exposed for tests and incremental streaming).
  edge sample(xoshiro256& rng) const;

 private:
  int scale_;
  std::uint64_t local_edges_;
  rmat_params params_;
  std::uint64_t rng_seed_;
};

}  // namespace ygm::graph
