// Delegate (high-degree vertex) handling (paper §V-B, following Pearce,
// Gokhale & Amato's vertex delegates).
//
// Skewed graphs concentrate a large share of the edges on a few hubs; a 1D
// partition then overloads the hubs' owner ranks. Delegates fix this: every
// rank keeps a replica of each hub's state, hub edges are stored colocated
// with their non-hub endpoint, and replica state is lazily synchronized
// with YGM's asynchronous broadcasts — the paper's flagship use of
// SEND_BCAST.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "core/comm_world.hpp"
#include "graph/edge.hpp"
#include "graph/rmat.hpp"

namespace ygm::graph {

/// The globally agreed set of delegate vertices, replicated on every rank.
/// Delegate ids are mapped to dense replica slots [0, size) so replicated
/// state can live in flat arrays.
class delegate_set {
 public:
  delegate_set() = default;

  /// Build from the globally sorted list of delegate vertex ids (identical
  /// on every rank).
  explicit delegate_set(std::vector<vertex_id> sorted_ids);

  /// Returned by find_slot() for a vertex that is not a delegate.
  static constexpr std::uint64_t no_slot = ~std::uint64_t{0};

  /// Dense replica slot of `v`, or no_slot: one table probe answers both
  /// contains(v) and slot(v).
  std::uint64_t find_slot(vertex_id v) const noexcept {
    for (std::size_t i = home(v);; i = (i + 1) & (buckets_.size() - 1)) {
      const bucket& b = buckets_[i];
      if (b.slot == no_slot || b.id == v) return b.slot;
    }
  }

  bool contains(vertex_id v) const noexcept { return find_slot(v) != no_slot; }

  /// Dense replica slot of a delegate id; throws ygm::error unless
  /// contains(v).
  std::uint64_t slot(vertex_id v) const {
    const std::uint64_t s = find_slot(v);
    YGM_CHECK(s != no_slot, "vertex is not a delegate");
    return s;
  }

  vertex_id id_of_slot(std::uint64_t slot) const { return ids_[slot]; }

  std::uint64_t size() const noexcept { return ids_.size(); }
  const std::vector<vertex_id>& ids() const noexcept { return ids_; }

 private:
  // Open addressing, sized once: the applications probe this table for
  // both endpoints of every edge. Power-of-two buckets at most half full, a
  // multiplicative (Fibonacci) hash taking the top bits, linear probing.
  // An empty bucket has slot no_slot.
  struct bucket {
    vertex_id id = 0;
    std::uint64_t slot = no_slot;
  };

  std::size_t home(vertex_id v) const noexcept {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<vertex_id> ids_;
  std::vector<bucket> buckets_ = std::vector<bucket>(2);
  int shift_ = 63;  ///< 64 - log2(buckets_.size())
};

/// Collectively select delegates: every vertex whose (locally owned) degree
/// meets `threshold` becomes a delegate, and the union is allgathered so all
/// ranks agree. `local_degrees[i]` is the degree of the vertex with local
/// index i under `part` on this rank.
delegate_set select_delegates(core::comm_world& world,
                              const std::vector<std::uint64_t>& local_degrees,
                              const round_robin_partition& part,
                              std::uint64_t threshold);

/// Expected largest degree of an RMAT graph with 2^scale vertices and
/// `num_edges` edges: the hottest row collects ~ num_edges * (a+b)^scale
/// edges. The paper scales its delegate threshold with this quantity in the
/// weak-scaling study (§VI-B).
double expected_max_degree(int scale, std::uint64_t num_edges,
                           const rmat_params& params);

}  // namespace ygm::graph
