#include "routing/router.hpp"

#include "telemetry/telemetry.hpp"

namespace ygm::routing {

// telemetry's per-scheme hop counters are indexed by scheme_kind's
// underlying value; keep the two enumerations in lockstep.
static_assert(static_cast<unsigned>(scheme_kind::no_route) == 0 &&
                  static_cast<unsigned>(scheme_kind::node_local) == 1 &&
                  static_cast<unsigned>(scheme_kind::node_remote) == 2 &&
                  static_cast<unsigned>(scheme_kind::nlnr) == 3,
              "scheme_kind order must match telemetry's scheme hop table");

std::string_view to_string(scheme_kind k) {
  switch (k) {
    case scheme_kind::no_route:
      return "NoRoute";
    case scheme_kind::node_local:
      return "NodeLocal";
    case scheme_kind::node_remote:
      return "NodeRemote";
    case scheme_kind::nlnr:
      return "NLNR";
  }
  return "?";
}

int router::next_hop(int here, int dst) const {
  // One tls() load for both hot-path counters: next_hop runs per queued
  // record, so the idle cost here must stay at a single load + branch.
  if (telemetry::recorder* rec = telemetry::tls()) {
    rec->fast_add(telemetry::fast_counter::route_next_hop, 1);
    rec->fast_add_scheme_hop(static_cast<unsigned>(kind_));
  }
  return next_hop_impl(here, dst);
}

int router::next_hop_impl(int here, int dst) const {
  YGM_ASSERT(here != dst);
  YGM_ASSERT(here >= 0 && here < topo_.num_ranks());
  YGM_ASSERT(dst >= 0 && dst < topo_.num_ranks());
  switch (kind_) {
    case scheme_kind::no_route:
      return dst;
    case scheme_kind::node_local:
      return next_hop_node_local(here, dst);
    case scheme_kind::node_remote:
      return next_hop_node_remote(here, dst);
    case scheme_kind::nlnr:
      return next_hop_nlnr(here, dst);
  }
  YGM_ASSERT(false);
  return dst;
}

int router::next_hop_node_local(int here, int dst) const {
  // (n,c) -> (n, c') locally, then (n, c') -> (n', c') on the core-offset-c'
  // remote channel.
  if (topo_.same_node(here, dst)) return dst;
  if (topo_.core_of(here) == topo_.core_of(dst)) return dst;  // remote hop
  return topo_.rank_of(topo_.node_of(here), topo_.core_of(dst));
}

int router::next_hop_node_remote(int here, int dst) const {
  // (n,c) -> (n', c) remotely first, then deliver within the node.
  if (topo_.same_node(here, dst)) return dst;
  return topo_.rank_of(topo_.node_of(dst), topo_.core_of(here));
}

int router::next_hop_nlnr(int here, int dst) const {
  // (n,c) -> (n, n' mod C) -> (n', n mod C) -> (n', c'), with natural
  // shortcuts whenever an intermediary coincides with the destination.
  if (topo_.same_node(here, dst)) return dst;
  const int gate = topo_.layer_offset(topo_.node_of(dst));  // n' mod C
  if (topo_.core_of(here) == gate) {
    // We are the sending-side gateway for dst's node: one remote hop to the
    // receiving-side gateway, whose core offset is our node's layer offset.
    return topo_.rank_of(topo_.node_of(dst),
                         topo_.layer_offset(topo_.node_of(here)));
  }
  return topo_.rank_of(topo_.node_of(here), gate);  // first local exchange
}

std::vector<int> router::bcast_next_hops(int here, int origin) const {
  std::vector<int> out = bcast_next_hops_impl(here, origin);
  telemetry::add(telemetry::fast_counter::route_bcast_fanout, out.size());
  return out;
}

rank_routes router::routes_from(int here) const {
  const int p = topo_.num_ranks();
  YGM_ASSERT(here >= 0 && here < p);
  rank_routes out;
  out.next_hop.resize(static_cast<std::size_t>(p), -1);
  out.bcast_begin.reserve(static_cast<std::size_t>(p) + 1);
  for (int r = 0; r < p; ++r) {
    if (r != here) {
      out.next_hop[static_cast<std::size_t>(r)] = next_hop_impl(here, r);
    }
    out.bcast_begin.push_back(static_cast<int>(out.bcast_hops.size()));
    const std::vector<int> hops = bcast_next_hops_impl(here, r);
    out.bcast_hops.insert(out.bcast_hops.end(), hops.begin(), hops.end());
  }
  out.bcast_begin.push_back(static_cast<int>(out.bcast_hops.size()));
  return out;
}

std::vector<int> router::bcast_next_hops_impl(int here, int origin) const {
  const int n_here = topo_.node_of(here);
  const int n_orig = topo_.node_of(origin);
  std::vector<int> out;

  switch (kind_) {
    case scheme_kind::no_route: {
      if (here == origin) {
        out.reserve(static_cast<std::size_t>(topo_.num_ranks() - 1));
        for (int r = 0; r < topo_.num_ranks(); ++r) {
          if (r != origin) out.push_back(r);
        }
      }
      return out;
    }

    case scheme_kind::node_local: {
      // Origin copies to every local core; each local core (origin included)
      // forwards on its core-offset remote channel: C*(N-1) remote messages.
      if (here == origin) {
        for (int c = 0; c < topo_.cores; ++c) {
          const int r = topo_.rank_of(n_orig, c);
          if (r != origin) out.push_back(r);
        }
      }
      if (n_here == n_orig) {
        const int c = topo_.core_of(here);
        for (int n = 0; n < topo_.nodes; ++n) {
          if (n != n_orig) out.push_back(topo_.rank_of(n, c));
        }
      }
      return out;
    }

    case scheme_kind::node_remote: {
      // Origin sends one remote copy per node (N-1 remote messages) to the
      // core matching its own offset, which fans out locally.
      if (here == origin) {
        const int c = topo_.core_of(origin);
        for (int n = 0; n < topo_.nodes; ++n) {
          if (n != n_orig) out.push_back(topo_.rank_of(n, c));
        }
        for (int cc = 0; cc < topo_.cores; ++cc) {
          const int r = topo_.rank_of(n_orig, cc);
          if (r != origin) out.push_back(r);
        }
      } else if (n_here != n_orig &&
                 topo_.core_of(here) == topo_.core_of(origin)) {
        for (int cc = 0; cc < topo_.cores; ++cc) {
          const int r = topo_.rank_of(n_here, cc);
          if (r != here) out.push_back(r);
        }
      }
      return out;
    }

    case scheme_kind::nlnr: {
      // Origin copies locally; local core (n, j) forwards one remote copy to
      // every node whose layer offset is j (N-1 remote messages in total);
      // the receiving gateway fans out locally.
      const int orig_loff = topo_.layer_offset(n_orig);
      if (here == origin) {
        for (int c = 0; c < topo_.cores; ++c) {
          const int r = topo_.rank_of(n_orig, c);
          if (r != origin) out.push_back(r);
        }
      }
      if (n_here == n_orig) {
        const int j = topo_.core_of(here);
        for (int n = 0; n < topo_.nodes; ++n) {
          if (n != n_orig && topo_.layer_offset(n) == j) {
            out.push_back(topo_.rank_of(n, orig_loff));
          }
        }
      } else if (topo_.core_of(here) == orig_loff) {
        for (int cc = 0; cc < topo_.cores; ++cc) {
          const int r = topo_.rank_of(n_here, cc);
          if (r != here) out.push_back(r);
        }
      }
      return out;
    }
  }
  YGM_ASSERT(false);
  return out;
}

std::vector<int> router::path(int src, int dst) const {
  YGM_ASSERT(src != dst);
  std::vector<int> hops;
  int here = src;
  while (here != dst) {
    here = next_hop(here, dst);
    hops.push_back(here);
    YGM_ASSERT(static_cast<int>(hops.size()) <= max_hops());
  }
  return hops;
}

int router::max_hops() const {
  switch (kind_) {
    case scheme_kind::no_route:
      return 1;
    case scheme_kind::node_local:
    case scheme_kind::node_remote:
      return 2;
    case scheme_kind::nlnr:
      return 3;
  }
  YGM_ASSERT(false);
  return 0;
}

int router::remote_out_partners(int rank) const {
  const int n = topo_.node_of(rank);
  const int c = topo_.core_of(rank);
  switch (kind_) {
    case scheme_kind::no_route:
      // Sends directly to every remote core.
      return (topo_.nodes - 1) * topo_.cores;
    case scheme_kind::node_local:
    case scheme_kind::node_remote:
      // One remote partner per other node: (n', c) for all n' != n.
      return topo_.nodes - 1;
    case scheme_kind::nlnr: {
      // Gateway for nodes n' with n' mod C == c: ~N/C partners.
      int cnt = 0;
      for (int nn = 0; nn < topo_.nodes; ++nn) {
        if (nn != n && topo_.layer_offset(nn) == c) ++cnt;
      }
      return cnt;
    }
  }
  YGM_ASSERT(false);
  return 0;
}

int router::local_out_partners(int rank) const {
  (void)rank;
  switch (kind_) {
    case scheme_kind::no_route:
      return topo_.cores - 1;  // direct local deliveries only
    case scheme_kind::node_local:
    case scheme_kind::node_remote:
    case scheme_kind::nlnr:
      return topo_.cores - 1;  // full local exchange within the node
  }
  YGM_ASSERT(false);
  return 0;
}

long long router::remote_channel_count() const {
  const long long c = topo_.cores;
  switch (kind_) {
    case scheme_kind::no_route:
      return 1;  // one undifferentiated all-pairs channel
    case scheme_kind::node_local:
    case scheme_kind::node_remote:
      return c;  // one channel per core offset
    case scheme_kind::nlnr:
      return c * (c - 1) / 2 + c;  // paper §III-D
  }
  YGM_ASSERT(false);
  return 0;
}

long long router::bcast_remote_messages() const {
  const long long n = topo_.nodes;
  const long long c = topo_.cores;
  switch (kind_) {
    case scheme_kind::no_route:
    case scheme_kind::node_local:
      return c * (n - 1);
    case scheme_kind::node_remote:
    case scheme_kind::nlnr:
      return n - 1;
  }
  YGM_ASSERT(false);
  return 0;
}

}  // namespace ygm::routing
