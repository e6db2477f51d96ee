// Tests for the routing schemes (routing/): route correctness, the paper's
// exchange-phase structure, channel/partner formulas, broadcast trees, and
// the per-world route table comm_world builds from them.
#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "core/ygm.hpp"
#include "routing/router.hpp"

namespace {

using ygm::routing::router;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ------------------------------------------------------------- topology

TEST(Topology, RankAddressingRoundTrips) {
  const topology t(5, 4);
  EXPECT_EQ(t.num_ranks(), 20);
  for (int r = 0; r < t.num_ranks(); ++r) {
    EXPECT_EQ(t.rank_of(t.node_of(r), t.core_of(r)), r);
    EXPECT_GE(t.core_of(r), 0);
    EXPECT_LT(t.core_of(r), t.cores);
  }
}

TEST(Topology, LocalityClassification) {
  const topology t(3, 4);
  EXPECT_TRUE(t.same_node(0, 3));
  EXPECT_FALSE(t.same_node(3, 4));
  EXPECT_TRUE(t.is_remote(0, 11));
  EXPECT_FALSE(t.is_remote(4, 7));
}

TEST(Topology, LayerStructureFollowsPaper) {
  // Layer offset l = n mod C; layers group C consecutive node offsets.
  const topology t(8, 4);
  EXPECT_EQ(t.layer_offset(0), 0);
  EXPECT_EQ(t.layer_offset(5), 1);
  EXPECT_EQ(t.layer_of(3), 0);
  EXPECT_EQ(t.layer_of(4), 1);
}

TEST(Topology, SchemeNames) {
  EXPECT_EQ(ygm::routing::to_string(scheme_kind::no_route), "NoRoute");
  EXPECT_EQ(ygm::routing::to_string(scheme_kind::node_local), "NodeLocal");
  EXPECT_EQ(ygm::routing::to_string(scheme_kind::node_remote), "NodeRemote");
  EXPECT_EQ(ygm::routing::to_string(scheme_kind::nlnr), "NLNR");
}

// ----------------------------------------------------- route correctness

struct route_case {
  scheme_kind kind;
  int nodes;
  int cores;
};

std::vector<route_case> route_cases() {
  std::vector<route_case> cases;
  for (auto kind : ygm::routing::all_schemes) {
    for (auto [n, c] : {std::pair{1, 1}, {1, 4}, {2, 1}, {2, 2}, {2, 3},
                        {3, 3}, {4, 4}, {5, 3}, {6, 4}, {8, 4}, {9, 2},
                        {12, 4}, {7, 5}}) {
      cases.push_back({kind, n, c});
    }
  }
  return cases;
}

class RoutingAllPairs : public ::testing::TestWithParam<route_case> {};

TEST_P(RoutingAllPairs, EveryRouteTerminatesAtDestinationWithinHopBound) {
  const auto& pc = GetParam();
  const topology t(pc.nodes, pc.cores);
  const router r(pc.kind, t);
  for (int s = 0; s < t.num_ranks(); ++s) {
    for (int d = 0; d < t.num_ranks(); ++d) {
      if (s == d) continue;
      int here = s;
      int hops = 0;
      while (here != d) {
        const int nh = r.next_hop(here, d);
        ASSERT_NE(nh, here) << "route stalled";
        ASSERT_GE(nh, 0);
        ASSERT_LT(nh, t.num_ranks());
        here = nh;
        ++hops;
        ASSERT_LE(hops, r.max_hops())
            << ygm::routing::to_string(pc.kind) << " s=" << s << " d=" << d;
      }
    }
  }
}

TEST_P(RoutingAllPairs, RemoteHopsNeverExceedOne) {
  // Every scheme crosses the wire exactly once per message (the whole point
  // of the local/remote phase split).
  const auto& pc = GetParam();
  const topology t(pc.nodes, pc.cores);
  const router r(pc.kind, t);
  for (int s = 0; s < t.num_ranks(); ++s) {
    for (int d = 0; d < t.num_ranks(); ++d) {
      if (s == d) continue;
      int here = s;
      int remote_hops = 0;
      while (here != d) {
        const int nh = r.next_hop(here, d);
        if (t.is_remote(here, nh)) ++remote_hops;
        here = nh;
      }
      ASSERT_EQ(remote_hops, t.same_node(s, d) ? 0 : 1);
    }
  }
}

TEST_P(RoutingAllPairs, SameNodeTrafficStaysLocal) {
  const auto& pc = GetParam();
  const topology t(pc.nodes, pc.cores);
  const router r(pc.kind, t);
  for (int s = 0; s < t.num_ranks(); ++s) {
    for (int d = 0; d < t.num_ranks(); ++d) {
      if (s == d || !t.same_node(s, d)) continue;
      // One local hop, straight to the destination.
      EXPECT_EQ(r.next_hop(s, d), d);
    }
  }
}

TEST_P(RoutingAllPairs, BroadcastTreeCoversEveryRankExactlyOnce) {
  const auto& pc = GetParam();
  const topology t(pc.nodes, pc.cores);
  const router r(pc.kind, t);
  for (int origin = 0; origin < t.num_ranks(); ++origin) {
    std::vector<int> copies(static_cast<std::size_t>(t.num_ranks()), 0);
    long long remote_msgs = 0;
    std::queue<int> frontier;
    frontier.push(origin);
    while (!frontier.empty()) {
      const int here = frontier.front();
      frontier.pop();
      for (int nh : r.bcast_next_hops(here, origin)) {
        ASSERT_NE(nh, origin) << "broadcast looped back to its origin";
        if (t.is_remote(here, nh)) ++remote_msgs;
        ++copies[static_cast<std::size_t>(nh)];
        frontier.push(nh);
      }
    }
    for (int rank = 0; rank < t.num_ranks(); ++rank) {
      ASSERT_EQ(copies[static_cast<std::size_t>(rank)],
                rank == origin ? 0 : 1)
          << ygm::routing::to_string(pc.kind) << " origin=" << origin
          << " rank=" << rank;
    }
    ASSERT_EQ(remote_msgs, r.bcast_remote_messages());
  }
}

TEST_P(RoutingAllPairs, RemotePartnerCountMatchesEnumeration) {
  const auto& pc = GetParam();
  const topology t(pc.nodes, pc.cores);
  const router r(pc.kind, t);
  // Enumerate actual wire edges used by uniform all-pairs traffic.
  std::map<int, std::set<int>> wire_out;
  for (int s = 0; s < t.num_ranks(); ++s) {
    for (int d = 0; d < t.num_ranks(); ++d) {
      if (s == d) continue;
      int here = s;
      while (here != d) {
        const int nh = r.next_hop(here, d);
        if (t.is_remote(here, nh)) wire_out[here].insert(nh);
        here = nh;
      }
    }
  }
  for (int rank = 0; rank < t.num_ranks(); ++rank) {
    const int expect = r.remote_out_partners(rank);
    const int actual = wire_out.count(rank)
                           ? static_cast<int>(wire_out[rank].size())
                           : 0;
    ASSERT_EQ(actual, expect)
        << ygm::routing::to_string(pc.kind) << " rank=" << rank;
  }
}

TEST_P(RoutingAllPairs, WorldRouteTableMatchesRouter) {
  // comm_world tabulates this rank's answers once; every entry must be the
  // router's own answer, on every rank.
  const auto& pc = GetParam();
  const topology t(pc.nodes, pc.cores);
  const router r(pc.kind, t);
  ygm::launch({.nranks = t.num_ranks()}, [&](ygm::mpisim::comm& c) {
    const ygm::core::comm_world world(c, t, pc.kind);
    const int me = c.rank();
    for (int d = 0; d < t.num_ranks(); ++d) {
      if (d != me) {
        EXPECT_EQ(world.next_hop(d), r.next_hop(me, d)) << d;
      }
    }
    for (int origin = 0; origin < t.num_ranks(); ++origin) {
      const auto hops = world.bcast_next_hops(origin);
      EXPECT_EQ(std::vector<int>(hops.begin(), hops.end()),
                r.bcast_next_hops(me, origin))
          << "rank " << me << " origin " << origin;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Machines, RoutingAllPairs, ::testing::ValuesIn(route_cases()),
    [](const ::testing::TestParamInfo<route_case>& info) {
      return std::string(ygm::routing::to_string(info.param.kind)) + "_N" +
             std::to_string(info.param.nodes) + "_C" +
             std::to_string(info.param.cores);
    });

// ------------------------------------------------- scheme-specific shapes

TEST(NodeLocal, RoutesLocalFirstThenRemote) {
  const topology t(4, 4);
  const router r(scheme_kind::node_local, t);
  // (0,1) -> (2,3): first hop local to core 3, then remote to node 2.
  const int s = t.rank_of(0, 1);
  const int d = t.rank_of(2, 3);
  const int h1 = r.next_hop(s, d);
  EXPECT_EQ(h1, t.rank_of(0, 3));
  EXPECT_EQ(r.next_hop(h1, d), d);
}

TEST(NodeRemote, RoutesRemoteFirstThenLocal) {
  const topology t(4, 4);
  const router r(scheme_kind::node_remote, t);
  // (0,1) -> (2,3): first hop remote to (2,1), then local delivery.
  const int s = t.rank_of(0, 1);
  const int d = t.rank_of(2, 3);
  const int h1 = r.next_hop(s, d);
  EXPECT_EQ(h1, t.rank_of(2, 1));
  EXPECT_EQ(r.next_hop(h1, d), d);
}

TEST(Nlnr, RoutesThroughBothGateways) {
  const topology t(8, 4);
  const router r(scheme_kind::nlnr, t);
  // (1,2) -> (7,0): local to (1, 7 mod 4 = 3), remote to (7, 1 mod 4 = 1),
  // local to (7,0).
  const int s = t.rank_of(1, 2);
  const int d = t.rank_of(7, 0);
  const int h1 = r.next_hop(s, d);
  EXPECT_EQ(h1, t.rank_of(1, 3));
  const int h2 = r.next_hop(h1, d);
  EXPECT_EQ(h2, t.rank_of(7, 1));
  EXPECT_EQ(r.next_hop(h2, d), d);
}

TEST(Nlnr, GatewayOriginSkipsFirstLocalExchange) {
  const topology t(8, 4);
  const router r(scheme_kind::nlnr, t);
  // Source core already matches the destination node's layer offset:
  // (1,3) -> (7,0) goes remote immediately.
  const int s = t.rank_of(1, 3);
  const int d = t.rank_of(7, 0);
  EXPECT_EQ(r.next_hop(s, d), t.rank_of(7, 1));
}

TEST(Nlnr, SelfOffsetCoresTalkToMatchingLayerOffsets) {
  // Cores (n, c) with c = n mod C communicate remotely only with nodes whose
  // layer offset matches their own core offset (paper §III-D).
  const topology t(8, 4);
  const router r(scheme_kind::nlnr, t);
  for (int n = 0; n < t.nodes; ++n) {
    const int c = t.layer_offset(n);
    const int rank = t.rank_of(n, c);
    for (int d = 0; d < t.num_ranks(); ++d) {
      if (d == rank) continue;
      const int nh = r.next_hop(rank, d);
      if (t.is_remote(rank, nh)) {
        EXPECT_EQ(t.layer_offset(t.node_of(nh)), c);
      }
    }
  }
}

// --------------------------------------------------- paper §III formulas

TEST(Formulas, RemoteChannelCounts) {
  const topology t(32, 8);
  EXPECT_EQ(router(scheme_kind::node_local, t).remote_channel_count(), 8);
  EXPECT_EQ(router(scheme_kind::node_remote, t).remote_channel_count(), 8);
  // C(C-1)/2 + C = 28 + 8.
  EXPECT_EQ(router(scheme_kind::nlnr, t).remote_channel_count(), 36);
}

TEST(Formulas, BcastRemoteMessageCounts) {
  // Paper §III-C/D: node_local consumes C*(N-1) remote messages per
  // broadcast; node_remote and NLNR consume N-1.
  const topology t(16, 4);
  EXPECT_EQ(router(scheme_kind::node_local, t).bcast_remote_messages(),
            4 * 15);
  EXPECT_EQ(router(scheme_kind::no_route, t).bcast_remote_messages(), 4 * 15);
  EXPECT_EQ(router(scheme_kind::node_remote, t).bcast_remote_messages(), 15);
  EXPECT_EQ(router(scheme_kind::nlnr, t).bcast_remote_messages(), 15);
}

TEST(Formulas, RemotePartnerScaling) {
  // Paper §III-E: (N-1)C partners with no routing, N-1 for NL/NR, ~N/C for
  // NLNR.
  const topology t(64, 8);
  EXPECT_EQ(router(scheme_kind::no_route, t).remote_out_partners(0), 63 * 8);
  EXPECT_EQ(router(scheme_kind::node_local, t).remote_out_partners(0), 63);
  EXPECT_EQ(router(scheme_kind::node_remote, t).remote_out_partners(0), 63);
  // Core 0 of node 0 gates nodes {8,16,...,56}: N/C - 1 partners (node 0 is
  // itself in that class).
  EXPECT_EQ(router(scheme_kind::nlnr, t).remote_out_partners(0), 7);
  // A core whose offset is not its node's layer offset gates N/C nodes.
  EXPECT_EQ(router(scheme_kind::nlnr, t).remote_out_partners(1), 8);
}

TEST(Formulas, MaxHops) {
  const topology t(4, 2);
  EXPECT_EQ(router(scheme_kind::no_route, t).max_hops(), 1);
  EXPECT_EQ(router(scheme_kind::node_local, t).max_hops(), 2);
  EXPECT_EQ(router(scheme_kind::node_remote, t).max_hops(), 2);
  EXPECT_EQ(router(scheme_kind::nlnr, t).max_hops(), 3);
}

TEST(Formulas, SingleCorePerNodeDegeneratesGracefully) {
  // With C = 1 every scheme reduces to direct node-to-node sends.
  const topology t(6, 1);
  for (auto kind : ygm::routing::all_schemes) {
    const router r(kind, t);
    for (int s = 0; s < t.num_ranks(); ++s) {
      for (int d = 0; d < t.num_ranks(); ++d) {
        if (s != d) {
          EXPECT_EQ(r.next_hop(s, d), d);
        }
      }
    }
  }
}

}  // namespace
// (appended) path() helper

TEST(Router, PathHelperMatchesIterativeNextHop) {
  const topology t(6, 4);
  for (auto kind : ygm::routing::all_schemes) {
    const router r(kind, t);
    for (int s = 0; s < t.num_ranks(); ++s) {
      for (int d = 0; d < t.num_ranks(); ++d) {
        if (s == d) continue;
        const auto hops = r.path(s, d);
        ASSERT_FALSE(hops.empty());
        ASSERT_EQ(hops.back(), d);
        ASSERT_LE(static_cast<int>(hops.size()), r.max_hops());
        int here = s;
        for (const int h : hops) {
          ASSERT_EQ(h, r.next_hop(here, d));
          here = h;
        }
      }
    }
  }
}
