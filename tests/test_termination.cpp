// Tests for termination detection (paper §IV-B): the blocking WAIT_EMPTY
// path is exercised throughout test_mailbox.cpp; this file focuses on the
// nonblocking TEST_EMPTY detector, including restarts across communication
// epochs and detection under uneven rank progress.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/rng.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

TEST(TestEmpty, SingleRankDetectsQuiescence) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    int got = 0;
    mailbox<int> mb(world, [&](const int& v) { got += v; });
    mb.send(0, 5);
    // Detection needs two stable polls (four-counter method).
    bool done = false;
    for (int i = 0; i < 10 && !done; ++i) done = mb.test_empty();
    EXPECT_TRUE(done);
    EXPECT_EQ(got, 5);
  });
}

TEST(TestEmpty, DetectsAfterAllTrafficDelivered) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(world, [&](const std::uint64_t& v) { got += v; },
                              64);
    for (int d = 0; d < c.size(); ++d) {
      if (d != c.rank()) mb.send(d, 1);
    }
    // Poll until globally quiescent; every rank keeps polling so the tree
    // rounds can progress.
    int polls = 0;
    while (!mb.test_empty()) {
      ++polls;
      ASSERT_LT(polls, 1000000) << "test_empty never detected quiescence";
      std::this_thread::yield();
    }
    EXPECT_EQ(got, static_cast<std::uint64_t>(c.size() - 1));
  });
}

TEST(TestEmpty, DoesNotFirePrematurelyWhileWorkRemains) {
  // Rank 0 delays producing its messages; test_empty must not report
  // quiescence before they are delivered.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(world, [&](const std::uint64_t& v) { got += v; });

    const std::uint64_t expected =
        c.rank() == 1 ? static_cast<std::uint64_t>(c.size()) * 10 : 0;

    if (c.rank() == 0) {
      // Queue traffic, then stall before joining the detection protocol.
      // The other ranks spin on test_empty meanwhile; no round can complete
      // without rank 0, and once it joins it must flush these sends first.
      for (int i = 0; i < 10 * c.size(); ++i) mb.send(1, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    while (!mb.test_empty()) std::this_thread::yield();
    // Quiescence implies full delivery: no partial counts possible.
    EXPECT_EQ(got, expected);
  });
}

TEST(TestEmpty, RestartsAcrossCommunicationEpochs) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(world, [&](const std::uint64_t& v) { got += v; });

    for (int epoch = 1; epoch <= 3; ++epoch) {
      for (int d = 0; d < c.size(); ++d) {
        if (d != c.rank()) mb.send(d, static_cast<std::uint64_t>(epoch));
      }
      while (!mb.test_empty()) std::this_thread::yield();
      // After epoch e, each rank has received (1 + ... + e) from each peer.
      const std::uint64_t per_peer =
          static_cast<std::uint64_t>(epoch) * (epoch + 1) / 2;
      EXPECT_EQ(got, per_peer * static_cast<std::uint64_t>(c.size() - 1))
          << "epoch " << epoch;
      c.barrier();
    }
  });
}

TEST(TestEmpty, MixesWithExternalWorkQueues) {
  // The HavoqGT pattern the paper describes: an application-level work queue
  // drained between polls, with messages spawning new local work.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::vector<std::uint64_t> work;  // external queue
    std::uint64_t processed = 0;

    mailbox<std::uint64_t>* mbp = nullptr;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { work.push_back(v); });
    mbp = &mb;

    // Seed: each rank queues local work items that generate messages.
    ygm::xoshiro256 rng(99 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 20; ++i) work.push_back(4);  // ttl 4

    bool done = false;
    while (!done) {
      while (!work.empty()) {
        const std::uint64_t ttl = work.back();
        work.pop_back();
        ++processed;
        if (ttl > 0) {
          const int dest =
              static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
          mbp->send(dest, ttl - 1);
        }
      }
      done = mb.test_empty() && work.empty();
    }
    const auto total = c.allreduce(processed, sim::op_sum{});
    // Each of the 20*P seeds is processed 5 times (ttl 4..0).
    EXPECT_EQ(total, static_cast<std::uint64_t>(c.size()) * 20 * 5);
  });
}

TEST(WaitEmpty, IsIdempotentWhenAlreadyQuiescent) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    mailbox<int> mb(world, [](const int&) {});
    mb.wait_empty();
    mb.wait_empty();  // must not deadlock or miscount
    for (int d = 0; d < c.size(); ++d) {
      if (d != c.rank()) mb.send(d, 1);
    }
    mb.wait_empty();
    EXPECT_EQ(mb.stats().deliveries, static_cast<std::uint64_t>(c.size() - 1));
  });
}

TEST(WaitEmpty, HandlesSlowRankWithHeavyInbound) {
  // One rank is slow to enter wait_empty while everyone floods it with
  // messages; the fast ranks sit in the termination loop forwarding traffic.
  const topology topo(4, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(world, [&](const std::uint64_t& v) { got += v; },
                              128);
    if (c.rank() != 0) {
      for (int i = 0; i < 500; ++i) mb.send(0, 1);
    } else {
      // Simulate slow computation before joining the protocol.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    mb.wait_empty();
    if (c.rank() == 0) {
      EXPECT_EQ(got, 500u * static_cast<std::uint64_t>(c.size() - 1));
    }
  });
}

}  // namespace

// (appended) chaos-PR regression tests: round-stamped detector messages and
// the shared wait_empty/test_empty protocol.

#include <tuple>

TEST(Termination, StaleContributionFromLaggedRoundIsRejected) {
  using contrib = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    const int tag_base =
        world.reserve_tag_block(ygm::core::termination_detector::tags_used);
    ygm::core::termination_detector td(world, tag_base);
    if (c.rank() == 1) {
      // Forge a duplicate round-0 contribution ahead of the real protocol.
      // The root consumes it as rank 1's round-0 message; the genuine one
      // then sits queued until the %4 tag window wraps at round 4, where —
      // without the round stamp — its 4-round-stale counts would silently
      // fold into round 4's totals.
      c.send(contrib{7, 7, 0}, 0, tag_base + 0);
    }
    c.barrier();
    // Each rank drives until its part of the protocol is done, however
    // slowly the other is scheduled; the deadline only bounds a broken run.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    auto drive_until = [&](auto done) {
      while (!done() && std::chrono::steady_clock::now() < deadline) {
        td.poll(1, 1);
        std::this_thread::yield();
      }
    };
    if (c.rank() == 0) {
      // Runs until poll() throws (or the deadline passes and the
      // expectation fails).
      EXPECT_THROW(drive_until([] { return false; }), ygm::error);
      EXPECT_EQ(td.rounds(), 4u);  // detected exactly at the window wrap
    } else {
      // rounds() reaches 4 when the root's round-3 verdict arrives, and
      // the same poll() sends this rank's round-4 contribution. By then
      // the root has thrown and expects nothing more.
      drive_until([&] { return td.rounds() >= 4; });
    }
    c.barrier();
  });
}

TEST(WaitEmpty, MixesWithTestEmptyAcrossRanks) {
  // wait_empty() must ride the same tree-detector protocol as test_empty():
  // if it used its own blocking collective, a world where some ranks block
  // in wait_empty while others poll test_empty would deadlock.
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(world, [&](const std::uint64_t& v) { got += v; },
                              64);
    for (int d = 0; d < c.size(); ++d) mb.send(d, 1);
    if (c.rank() % 2 == 0) {
      mb.wait_empty();
    } else {
      while (!mb.test_empty()) std::this_thread::yield();
    }
    EXPECT_EQ(got, static_cast<std::uint64_t>(c.size()));
  });
}
