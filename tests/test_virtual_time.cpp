// Tests for virtual-time execution (core/comm_world.hpp + mailbox): an
// executed run on rank-threads also yields the causally consistent time the
// same run would take on the modeled cluster — the bridge between
// [executed] and [model] bench rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::router;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

double run_timed_uniform(const topology& topo, scheme_kind kind, int msgs,
                         std::size_t capacity) {
  double elapsed = 0;
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, kind);
    world.attach_virtual_network(ygm::net::network_params::quartz_like());
    mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {}, capacity);
    ygm::xoshiro256 rng(1 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < msgs; ++i) {
      int dest = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(c.size() - 1)));
      if (dest >= c.rank()) ++dest;
      mb.send(dest, rng());
    }
    mb.wait_empty();
    const double t = world.virtual_elapsed();
    if (c.rank() == 0) elapsed = t;
  });
  return elapsed;
}

TEST(VirtualTime, UntimedWorldStaysAtZero) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_remote);
    EXPECT_FALSE(world.timed());
    mailbox<int> mb(world, [](const int&) {});
    for (int d = 0; d < c.size(); ++d) {
      if (d != c.rank()) mb.send(d, 1);
    }
    mb.wait_empty();
    EXPECT_EQ(world.virtual_now(), 0.0);
    EXPECT_EQ(world.virtual_elapsed(), 0.0);
  });
}

TEST(VirtualTime, TimedRunAccumulatesPositiveTime) {
  const double t = run_timed_uniform(topology(2, 2), scheme_kind::nlnr, 200,
                                     512);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);  // a few hundred tiny messages, not seconds
}

TEST(VirtualTime, MoreTrafficTakesLonger) {
  const topology topo(2, 4);
  const double small =
      run_timed_uniform(topo, scheme_kind::node_remote, 200, 1024);
  const double large =
      run_timed_uniform(topo, scheme_kind::node_remote, 4000, 1024);
  EXPECT_GT(large, small);
}

TEST(VirtualTime, ArrivalStampsEnforceCausality) {
  // A relay chain 0 -> 1 -> 2 across nodes: rank 2's clock must include at
  // least two remote transfers plus handling, and each relay's clock must
  // be at least the upstream sender's.
  const topology topo(3, 1);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::no_route);
    world.attach_virtual_network(ygm::net::network_params::quartz_like());
    const auto& np = world.virtual_network();

    std::vector<double> clock_at_delivery(1, -1.0);
    mailbox<int>* mbp = nullptr;
    mailbox<int> mb(
        world,
        [&](const int& hops_left) {
          clock_at_delivery[0] = world.virtual_now();
          if (hops_left > 0) mbp->send(c.rank() + 1, hops_left - 1);
        },
        64);
    mbp = &mb;
    if (c.rank() == 0) mb.send(1, 1);
    mb.wait_empty();

    const double min_transfer = np.remote.transfer_time(16);
    if (c.rank() == 1) {
      EXPECT_GE(clock_at_delivery[0], min_transfer);
    }
    if (c.rank() == 2) {
      // Two sequential remote transfers on the causal path.
      EXPECT_GE(clock_at_delivery[0], 2 * min_transfer);
    }
    const double total = world.virtual_elapsed();
    EXPECT_GE(total, 2 * min_transfer);
  });
}

TEST(VirtualTime, SchemeOrderingMatchesEvaluatorAtSmallScale) {
  // For many tiny messages under a small capacity, NoRoute's
  // latency-dominated packets must cost more simulated time than
  // NodeRemote's coalesced ones — the executed counterpart of the
  // evaluator's packet-size argument.
  const topology topo(4, 4);
  const double none =
      run_timed_uniform(topo, scheme_kind::no_route, 3000, 4096);
  const double nr =
      run_timed_uniform(topo, scheme_kind::node_remote, 3000, 4096);
  EXPECT_GT(none, nr);
}

TEST(VirtualTime, AgreesWithEvaluatorWithinSmallFactor) {
  const topology topo(4, 4);
  const int msgs = 4000;
  const std::size_t capacity = 2048;
  const double executed =
      run_timed_uniform(topo, scheme_kind::node_remote, msgs, capacity);

  ygm::net::traffic_model tm;
  tm.p2p_bytes = msgs * 10.0;  // 8-byte payload + framing
  tm.p2p_msg_bytes = 10.0;
  const auto predicted = ygm::net::evaluate(
      router(scheme_kind::node_remote, topo),
      ygm::net::network_params::quartz_like(), capacity, tm);

  // The evaluator reports the per-core average; the virtual clock reports
  // the causal critical path, which is larger but of the same scale.
  EXPECT_GT(executed, 0.5 * predicted.total_s);
  EXPECT_LT(executed, 20 * predicted.total_s);
}

TEST(VirtualTime, LocalOnlyTrafficChargesLocalLinkCosts) {
  // Single node, local-only traffic: the coalesced packets must advance
  // time and stay in the local-link cost regime (far below any wire
  // transfer of the same volume).
  const topology topo(1, 4);
  const auto np = ygm::net::network_params::quartz_like();
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    world.attach_virtual_network(np);
    mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {}, 128);
    for (int i = 0; i < 100; ++i) {
      mb.send((c.rank() + 1) % c.size(), std::uint64_t{1});
    }
    mb.wait_empty();
    const double t = world.virtual_elapsed();
    EXPECT_GT(t, 0.0);
    const double wire_equiv =
        np.remote.transfer_time(100.0 * 10) * topo.num_ranks();
    EXPECT_LT(t, wire_equiv * 10);
  });
}

}  // namespace
// Containers under virtual time

#include "containers/counting_set.hpp"

namespace {

TEST(VirtualTime, ContainersAccrueVirtualTime) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    world.attach_virtual_network(ygm::net::network_params::quartz_like());
    ygm::container::counting_set<std::uint64_t> cs(world, 256);
    for (int i = 0; i < 200; ++i) {
      cs.async_insert(static_cast<std::uint64_t>(i % 17));
    }
    cs.wait_empty();
    EXPECT_GT(world.virtual_elapsed(), 0.0);
    EXPECT_EQ(cs.global_total(), 200u * static_cast<std::uint64_t>(c.size()));
  });
}

}  // namespace
