// Connected components by label propagation with delegate vertices
// (paper §V-B).
//
// Every vertex starts labelled with its own id; each pass pushes labels
// along every edge and keeps the minimum; passes repeat until no label
// changes, leaving each vertex labelled with the minimum vertex id of its
// component (the paper notes this simple O(diam G) algorithm was chosen to
// stress the mailbox, not to be the fastest CC).
//
// Delegates: high-degree vertices are replicated on every rank; their edges
// are stored colocated with the non-delegate endpoint, so delegate label
// reads and writes are local during a pass, and replicas are synchronized
// between passes with YGM's asynchronous broadcasts — the paper's heaviest
// use of SEND_BCAST (Fig. 7 plots the broadcast growth this produces).
#pragma once

#include <cstdint>
#include <vector>

#include "core/comm_world.hpp"
#include "core/mailbox.hpp"
#include "core/stats.hpp"
#include "graph/delegates.hpp"
#include "graph/edge.hpp"

namespace ygm::apps {

struct cc_result {
  /// labels[i] = component label (minimum member id) of the vertex with
  /// local index i; entries for delegate-owned indices mirror the replica.
  std::vector<graph::vertex_id> local_labels;
  /// Replica labels, one per delegate slot (identical on every rank).
  std::vector<graph::vertex_id> delegate_labels;
  int passes = 0;             ///< graph passes until convergence
  std::uint64_t broadcasts = 0;  ///< send_bcast calls issued by this rank
  core::mailbox_stats stats;     ///< label-mailbox traffic counters
};

/// Collective. `local_edges` is this rank's slice of the (undirected) edge
/// stream, in arbitrary order — ingestion routes each direction to the rank
/// that stores it. `delegates` may be empty (no replication). Throws
/// ygm::error if `num_vertices` exceeds 2^62.
cc_result connected_components(
    core::comm_world& world, const std::vector<graph::edge>& local_edges,
    graph::vertex_id num_vertices, const graph::delegate_set& delegates,
    std::size_t mailbox_capacity = core::default_mailbox_capacity);

/// Serial oracle: union-find over a full edge list, labels = min id per
/// component (what label propagation converges to).
std::vector<graph::vertex_id> connected_components_reference(
    graph::vertex_id num_vertices, const std::vector<graph::edge>& edges);

}  // namespace ygm::apps
