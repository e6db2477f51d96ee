// The paper's four message-routing schemes (§III) as pure logic.
//
// A router answers, statelessly, "given a message currently held at rank
// `here` destined for rank `dst`, which rank receives it next?" — the
// mailbox layer drives all exchanges off this single function, so the
// local/remote exchange phases of the paper emerge from repeated
// forwarding. Broadcast fan-out trees are exposed the same way.
//
// Schemes:
//   no_route    - direct core-to-core sends (the paper's "NoRoute" baseline)
//   node_local  - local exchange by destination core offset, then one remote
//                 exchange per core offset (§III-B)
//   node_remote - remote exchange by destination node first, local second
//                 (§III-C); broadcast-friendly
//   nlnr        - local, remote, local with layered nodes (§III-D); the
//                 minimum number of remote channels
#pragma once

#include <string_view>
#include <vector>

#include "routing/topology.hpp"

namespace ygm::routing {

enum class scheme_kind { no_route, node_local, node_remote, nlnr };

/// One rank's routes under a scheme, flattened: its next hop toward every
/// destination and its broadcast fan-out for every origin, as per-origin
/// offsets into one hop array (O(P) ints under every scheme).
struct rank_routes {
  std::vector<int> next_hop;     ///< [dst]; -1 at the rank itself
  std::vector<int> bcast_begin;  ///< [origin] into bcast_hops; P + 1 entries
  std::vector<int> bcast_hops;
};

std::string_view to_string(scheme_kind k);

/// All schemes, in the order the paper's plots list them.
inline constexpr scheme_kind all_schemes[] = {
    scheme_kind::no_route, scheme_kind::node_local, scheme_kind::node_remote,
    scheme_kind::nlnr};

class router {
 public:
  router(scheme_kind kind, topology topo) : kind_(kind), topo_(topo) {}

  scheme_kind kind() const noexcept { return kind_; }
  const topology& topo() const noexcept { return topo_; }

  /// Next rank on the route from `here` toward `dst`. Returns `dst` when the
  /// next hop is the final delivery. Precondition: here != dst.
  int next_hop(int here, int dst) const;

  /// Ranks to which a broadcast copy held at `here` (originated by `origin`)
  /// must be forwarded. Every rank except `origin` receives exactly one copy
  /// across the whole tree. Callers pass here==origin to start the bcast.
  std::vector<int> bcast_next_hops(int here, int origin) const;

  /// Every next_hop(here, ·) and bcast_next_hops(here, ·) answer, computed
  /// once (core::comm_world's route table). Counts no telemetry: the
  /// table's readers count each lookup instead.
  rank_routes routes_from(int here) const;

  /// The full hop sequence from src to dst (excluding src, ending at dst).
  /// Convenience over repeated next_hop(); length <= max_hops().
  std::vector<int> path(int src, int dst) const;

  /// Upper bound on hops any point-to-point message takes (paper: 1 for
  /// NoRoute, 2 for NL/NR, 3 for NLNR).
  int max_hops() const;

  // ------------------------------------------------------ §III-E analysis

  /// Number of distinct *remote* ranks `rank` sends wire messages to under
  /// uniform all-to-all traffic (as origin or intermediary).
  int remote_out_partners(int rank) const;

  /// Number of distinct *local* ranks `rank` sends to under uniform
  /// all-to-all traffic.
  int local_out_partners(int rank) const;

  /// Global count of remote communication channels (paper: C for NL/NR,
  /// C(C-1)/2 + C for NLNR).
  long long remote_channel_count() const;

  /// Remote messages consumed by one broadcast (paper: C(N-1) for
  /// node_local, N-1 for node_remote and NLNR).
  long long bcast_remote_messages() const;

 private:
  int next_hop_impl(int here, int dst) const;
  std::vector<int> bcast_next_hops_impl(int here, int origin) const;
  int next_hop_node_local(int here, int dst) const;
  int next_hop_node_remote(int here, int dst) const;
  int next_hop_nlnr(int here, int dst) const;

  scheme_kind kind_;
  topology topo_;
};

}  // namespace ygm::routing
