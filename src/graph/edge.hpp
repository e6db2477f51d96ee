// Basic edge and partitioning types shared by the graph substrate and the
// applications.
#pragma once

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace ygm::graph {

using vertex_id = std::uint64_t;

struct edge {
  vertex_id src = 0;
  vertex_id dst = 0;

  bool operator==(const edge&) const = default;
};

/// The paper's 1D round-robin vertex partitioning (Algorithm 1): vertex v is
/// owned by rank v % P and stored at local index v / P.
///
/// Every message of the graph applications is addressed through owner() or
/// local_index(). When P is a power of two they are a mask and a shift
/// fixed at construction instead of a divide by the runtime rank count.
class round_robin_partition {
 public:
  explicit round_robin_partition(int num_ranks = 1) : p_(num_ranks) {
    YGM_CHECK(num_ranks >= 1, "partition needs at least one rank");
    const auto d = static_cast<std::uint64_t>(num_ranks);
    if (std::has_single_bit(d)) shift_ = std::countr_zero(d);
  }

  int num_ranks() const noexcept { return p_; }

  int owner(vertex_id v) const noexcept {
    const auto d = static_cast<vertex_id>(p_);
    return static_cast<int>(shift_ >= 0 ? v & (d - 1) : v % d);
  }
  std::uint64_t local_index(vertex_id v) const noexcept {
    return shift_ >= 0 ? v >> shift_ : v / static_cast<vertex_id>(p_);
  }
  vertex_id global_id(int rank, std::uint64_t local) const noexcept {
    return local * static_cast<vertex_id>(p_) + static_cast<vertex_id>(rank);
  }
  /// Number of vertices stored locally at `rank` out of `num_vertices`.
  std::uint64_t local_count(int rank, std::uint64_t num_vertices) const
      noexcept {
    return (num_vertices - static_cast<vertex_id>(rank) +
            static_cast<vertex_id>(p_) - 1) /
           static_cast<vertex_id>(p_);
  }

 private:
  int p_;
  int shift_ = -1;  ///< log2(P) when P is a power of two, else -1
};

}  // namespace ygm::graph
