// Integration and property tests for the YGM mailbox (core/) running over
// every routing scheme on a range of machine shapes, polling and with the
// progress engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

struct machine_case {
  scheme_kind kind;
  int nodes;
  int cores;
  std::size_t capacity;
};

std::string case_name(const ::testing::TestParamInfo<machine_case>& info) {
  return std::string(ygm::routing::to_string(info.param.kind)) + "_N" +
         std::to_string(info.param.nodes) + "_C" +
         std::to_string(info.param.cores) + "_cap" +
         std::to_string(info.param.capacity);
}

std::vector<machine_case> machine_cases() {
  std::vector<machine_case> cases;
  for (auto kind : ygm::routing::all_schemes) {
    for (auto [n, c] : {std::pair{1, 1}, {1, 4}, {2, 2}, {2, 4}, {4, 2},
                        {3, 3}, {4, 4}}) {
      cases.push_back({kind, n, c, 1024});
    }
    // Capacity extremes on one representative machine: tiny (flush on nearly
    // every send) and huge (everything rides the termination flush).
    cases.push_back({kind, 2, 4, 1});
    cases.push_back({kind, 2, 4, std::size_t{1} << 22});
  }
  return cases;
}

class MailboxMachines : public ::testing::TestWithParam<machine_case> {};

// -------------------------------------------------- point-to-point traffic

TEST_P(MailboxMachines, RandomTrafficDeliversExactlyOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);

    std::uint64_t recv_count = 0;
    std::uint64_t recv_sum = 0;
    mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          ++recv_count;
          recv_sum += v;
        },
        mc.capacity);

    ygm::xoshiro256 rng(42 + static_cast<std::uint64_t>(c.rank()));
    const int sends = 200 + static_cast<int>(rng.below(200));
    std::vector<std::uint64_t> count_to(static_cast<std::size_t>(c.size()), 0);
    std::vector<std::uint64_t> sum_to(static_cast<std::size_t>(c.size()), 0);
    for (int i = 0; i < sends; ++i) {
      const int dest =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
      const std::uint64_t value = rng() >> 20;
      mb.send(dest, value);
      ++count_to[static_cast<std::size_t>(dest)];
      sum_to[static_cast<std::size_t>(dest)] += value;
    }
    mb.wait_empty();

    const auto expect_count = c.allreduce_vec(count_to, sim::op_sum{});
    const auto expect_sum = c.allreduce_vec(sum_to, sim::op_sum{});
    EXPECT_EQ(recv_count, expect_count[static_cast<std::size_t>(c.rank())]);
    EXPECT_EQ(recv_sum, expect_sum[static_cast<std::size_t>(c.rank())]);
  });
}

TEST_P(MailboxMachines, BroadcastReachesEveryOtherRankOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);

    std::vector<int> copies_from(static_cast<std::size_t>(c.size()), 0);
    mailbox<std::uint32_t> mb(
        world,
        [&](const std::uint32_t& origin) {
          ++copies_from[static_cast<std::size_t>(origin)];
        },
        mc.capacity);

    constexpr int kBcasts = 5;
    for (int i = 0; i < kBcasts; ++i) {
      mb.send_bcast(static_cast<std::uint32_t>(c.rank()));
    }
    mb.wait_empty();

    for (int origin = 0; origin < c.size(); ++origin) {
      EXPECT_EQ(copies_from[static_cast<std::size_t>(origin)],
                origin == c.rank() ? 0 : kBcasts)
          << "origin=" << origin << " at rank " << c.rank();
    }
  });
}

TEST_P(MailboxMachines, CallbackSpawnedCascadesTerminate) {
  // Each delivery with ttl > 0 spawns a new message — the data-dependent
  // cascade pattern of BFS/label-propagation. wait_empty must hold every
  // rank in the protocol until the whole cascade dies out.
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  struct hop_msg {
    std::uint32_t ttl = 0;
    std::uint64_t seed = 0;
  };
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::uint64_t deliveries = 0;
    mailbox<hop_msg>* mbp = nullptr;
    mailbox<hop_msg> mb(
        world,
        [&](const hop_msg& m) {
          ++deliveries;
          if (m.ttl > 0) {
            const auto next = ygm::splitmix64(m.seed);
            const int dest =
                static_cast<int>(next % static_cast<std::uint64_t>(c.size()));
            mbp->send(dest, hop_msg{m.ttl - 1, next});
          }
        },
        mc.capacity);
    mbp = &mb;

    constexpr std::uint32_t kTtl = 7;
    constexpr int kSeeds = 20;
    for (int i = 0; i < kSeeds; ++i) {
      const auto seed =
          ygm::splitmix64(static_cast<std::uint64_t>(c.rank()) * 1000 +
                          static_cast<std::uint64_t>(i));
      const int dest =
          static_cast<int>(seed % static_cast<std::uint64_t>(c.size()));
      mb.send(dest, hop_msg{kTtl, seed});
    }
    mb.wait_empty();

    // Every injected message is delivered ttl+1 times in total.
    const auto total = c.allreduce(deliveries, sim::op_sum{});
    EXPECT_EQ(total, static_cast<std::uint64_t>(c.size()) * kSeeds * (kTtl + 1));
  });
}

INSTANTIATE_TEST_SUITE_P(Machines, MailboxMachines,
                         ::testing::ValuesIn(machine_cases()), case_name);

// ------------------------------------------- MPI+threads (paper §VII)
//
// The hybrid MPI+threads setting served by the one mailbox: ranks are
// threads of one process (node-local flushes hand whole buffers over by
// pointer move), and the progress engine adds a second thread per process
// that drives the transport and the termination rounds while ranks block
// in wait_empty(). MailboxMachines runs its shapes polling-only.

std::vector<machine_case> hybrid_machine_cases() {
  std::vector<machine_case> cases;
  for (auto kind : ygm::routing::all_schemes) {
    for (auto [n, c] : {std::pair{1, 4}, {2, 2}, {2, 4}, {4, 2}, {3, 3}}) {
      cases.push_back({kind, n, c, 1024});
    }
    cases.push_back({kind, 2, 4, 1});
  }
  return cases;
}

void launch_with_engine(const topology& topo,
                        const std::function<void(sim::comm&)>& fn) {
  ygm::run_options o;
  o.nranks = topo.num_ranks();
  o.backend = ygm::transport::backend_kind::inproc;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [&](sim::comm& c) {
    ASSERT_NE(ygm::progress::current(), nullptr);
    fn(c);
  });
}

class HybridMachines : public ::testing::TestWithParam<machine_case> {};

TEST_P(HybridMachines, RandomTrafficDeliversExactlyOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  launch_with_engine(topo, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::uint64_t recv_count = 0;
    std::uint64_t recv_sum = 0;
    mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          ++recv_count;
          recv_sum += v;
        },
        mc.capacity);

    ygm::xoshiro256 rng(7 + static_cast<std::uint64_t>(c.rank()));
    const int sends = 150 + static_cast<int>(rng.below(150));
    std::vector<std::uint64_t> count_to(static_cast<std::size_t>(c.size()), 0);
    std::vector<std::uint64_t> sum_to(static_cast<std::size_t>(c.size()), 0);
    for (int i = 0; i < sends; ++i) {
      const int dest =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
      const std::uint64_t value = rng() >> 20;
      mb.send(dest, value);
      ++count_to[static_cast<std::size_t>(dest)];
      sum_to[static_cast<std::size_t>(dest)] += value;
    }
    mb.wait_empty();

    const auto expect_count = c.allreduce_vec(count_to, sim::op_sum{});
    const auto expect_sum = c.allreduce_vec(sum_to, sim::op_sum{});
    EXPECT_EQ(recv_count, expect_count[static_cast<std::size_t>(c.rank())]);
    EXPECT_EQ(recv_sum, expect_sum[static_cast<std::size_t>(c.rank())]);
  });
}

TEST_P(HybridMachines, BroadcastReachesEveryOtherRankOnce) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  launch_with_engine(topo, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::vector<int> copies_from(static_cast<std::size_t>(c.size()), 0);
    mailbox<std::uint32_t> mb(
        world,
        [&](const std::uint32_t& origin) {
          ++copies_from[static_cast<std::size_t>(origin)];
        },
        mc.capacity);
    constexpr int kBcasts = 4;
    for (int i = 0; i < kBcasts; ++i) {
      mb.send_bcast(static_cast<std::uint32_t>(c.rank()));
    }
    mb.wait_empty();
    for (int origin = 0; origin < c.size(); ++origin) {
      EXPECT_EQ(copies_from[static_cast<std::size_t>(origin)],
                origin == c.rank() ? 0 : kBcasts)
          << "origin=" << origin << " at rank " << c.rank();
    }
  });
}

TEST_P(HybridMachines, CallbackCascadesTerminate) {
  const auto& mc = GetParam();
  const topology topo(mc.nodes, mc.cores);
  struct hop_msg {
    std::uint32_t ttl = 0;
    std::uint64_t seed = 0;
  };
  launch_with_engine(topo, [&](sim::comm& c) {
    comm_world world(c, topo, mc.kind);
    std::uint64_t deliveries = 0;
    mailbox<hop_msg>* mbp = nullptr;
    mailbox<hop_msg> mb(
        world,
        [&](const hop_msg& m) {
          ++deliveries;
          if (m.ttl > 0) {
            const auto next = ygm::splitmix64(m.seed);
            mbp->send(static_cast<int>(
                          next % static_cast<std::uint64_t>(c.size())),
                      hop_msg{m.ttl - 1, next});
          }
        },
        mc.capacity);
    mbp = &mb;
    constexpr std::uint32_t kTtl = 5;
    constexpr int kSeeds = 12;
    for (int i = 0; i < kSeeds; ++i) {
      const auto seed = ygm::splitmix64(
          static_cast<std::uint64_t>(c.rank()) * 77 + static_cast<std::uint64_t>(i));
      mb.send(static_cast<int>(seed % static_cast<std::uint64_t>(c.size())),
              hop_msg{kTtl, seed});
    }
    mb.wait_empty();
    const auto total = c.allreduce(deliveries, sim::op_sum{});
    EXPECT_EQ(total,
              static_cast<std::uint64_t>(c.size()) * kSeeds * (kTtl + 1));
  });
}

INSTANTIATE_TEST_SUITE_P(Machines, HybridMachines,
                         ::testing::ValuesIn(hybrid_machine_cases()),
                         case_name);

// ------------------------------------------------------- focused behaviour

TEST(Mailbox, SelfSendDeliversImmediately) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    int got = 0;
    mailbox<int> mb(world, [&](const int& v) { got = v; });
    mb.send(0, 41);
    EXPECT_EQ(got, 41);  // no flush or wait needed
    EXPECT_EQ(mb.stats().deliveries, 1u);
    mb.wait_empty();
  });
}

TEST(Mailbox, VariableLengthMessagesSurviveRouting) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::map<std::string, std::vector<std::uint64_t>> received;
    using msg = std::pair<std::string, std::vector<std::uint64_t>>;
    mailbox<msg> mb(world, [&](const msg& m) { received[m.first] = m.second; });

    // Every rank sends a distinctly-shaped variable-length message to every
    // other rank.
    for (int d = 0; d < c.size(); ++d) {
      if (d == c.rank()) continue;
      std::string key = "from-" + std::to_string(c.rank());
      std::vector<std::uint64_t> body(
          static_cast<std::size_t>(c.rank() * 7 + d), 99);
      mb.send(d, {key, body});
    }
    mb.wait_empty();

    EXPECT_EQ(received.size(), static_cast<std::size_t>(c.size() - 1));
    for (int s = 0; s < c.size(); ++s) {
      if (s == c.rank()) continue;
      const auto it = received.find("from-" + std::to_string(s));
      ASSERT_NE(it, received.end());
      EXPECT_EQ(it->second.size(),
                static_cast<std::size_t>(s * 7 + c.rank()));
    }
  });
}

TEST(Mailbox, CapacityTriggersExchangesBeforeTermination) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    std::atomic<int> got{0};
    // Capacity of ~3 records: the 100-message stream must flush many times.
    mailbox<std::uint64_t> mb(world, [&](const std::uint64_t&) { ++got; }, 32);
    const int dest = (c.rank() + 1) % c.size();
    for (int i = 0; i < 100; ++i) mb.send(dest, 7);
    EXPECT_GT(mb.stats().flushes, 10u);
    mb.wait_empty();
    EXPECT_EQ(got.load(), 100);
  });
}

TEST(Mailbox, StatsAccountForRoutedTraffic) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_local);
    mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {}, 256);
    // (n,0) -> other node, core 1: one local hop plus one remote hop.
    const int dest = topo.rank_of(1 - world.node(), 1 - world.core());
    constexpr int kCount = 50;
    for (int i = 0; i < kCount; ++i) mb.send(dest, 1);
    mb.wait_empty();

    const auto& st = mb.stats();
    EXPECT_EQ(st.app_sends, kCount);
    EXPECT_EQ(st.deliveries, kCount);  // symmetric traffic
    // Every message makes two hops (local + remote) under NodeLocal.
    const auto total_hops = c.allreduce(st.hops_sent, sim::op_sum{});
    EXPECT_EQ(total_hops, static_cast<std::uint64_t>(2 * kCount * c.size()));
    const auto recv_hops = c.allreduce(st.hops_received, sim::op_sum{});
    EXPECT_EQ(recv_hops, total_hops);
    // Each rank forwarded the traffic of exactly one peer.
    EXPECT_EQ(st.forwards, kCount);
    EXPECT_GT(st.local_bytes, 0u);
    EXPECT_GT(st.remote_bytes, 0u);
  });
}

TEST(Mailbox, AvgRemotePacketSizeGrowsWithRouting) {
  // The §III-E effect, observed on the executed mailbox: for the same
  // uniform traffic and capacity, NLNR produces larger wire packets than
  // NoRoute because each core has far fewer remote partners.
  const topology topo(4, 4);
  const auto avg_remote_packet = [&](scheme_kind kind) {
    double result = 0;
    ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
      comm_world world(c, topo, kind);
      mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {}, 4096);
      ygm::xoshiro256 rng(5 + static_cast<std::uint64_t>(c.rank()));
      for (int i = 0; i < 2000; ++i) {
        const int dest =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
        mb.send(dest, rng());
      }
      mb.wait_empty();
      const auto bytes = c.allreduce(mb.stats().remote_bytes, sim::op_sum{});
      const auto pkts = c.allreduce(mb.stats().remote_packets, sim::op_sum{});
      if (c.rank() == 0) {
        result = static_cast<double>(bytes) / static_cast<double>(pkts);
      }
    });
    return result;
  };
  const double no_route = avg_remote_packet(scheme_kind::no_route);
  const double nlnr = avg_remote_packet(scheme_kind::nlnr);
  EXPECT_GT(nlnr, 1.5 * no_route);
}

TEST(Mailbox, MultipleMailboxesShareOneWorld) {
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    std::uint64_t sum_a = 0;
    int count_b = 0;
    mailbox<std::uint64_t> a(world, [&](const std::uint64_t& v) { sum_a += v; });
    mailbox<std::string> b(world, [&](const std::string&) { ++count_b; });

    for (int d = 0; d < c.size(); ++d) {
      if (d == c.rank()) continue;
      a.send(d, 10);
      b.send(d, "text");
    }
    a.wait_empty();
    b.wait_empty();
    EXPECT_EQ(sum_a, 10u * (c.size() - 1));
    EXPECT_EQ(count_b, c.size() - 1);
  });
}

TEST(Mailbox, RejectsInvalidConstruction) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    EXPECT_THROW(mailbox<int>(world, nullptr), ygm::error);
    EXPECT_THROW(mailbox<int>(world, [](const int&) {}, 0), ygm::error);
  });
}

TEST(Mailbox, RejectsOutOfRangeDestination) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    mailbox<int> mb(world, [](const int&) {});
    EXPECT_THROW(mb.send(-1, 0), ygm::error);
    EXPECT_THROW(mb.send(2, 0), ygm::error);
    mb.wait_empty();
  });
}

TEST(CommWorld, ValidatesTopologyAgainstCommSize) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    EXPECT_THROW(comm_world(c, topology(2, 4), scheme_kind::no_route),
                 ygm::error);
    EXPECT_THROW(comm_world(c, 3, scheme_kind::no_route), ygm::error);
    comm_world ok(c, 2, scheme_kind::nlnr);
    EXPECT_EQ(ok.topo().nodes, 2);
    EXPECT_EQ(ok.topo().cores, 2);
    EXPECT_EQ(ok.node(), c.rank() / 2);
    EXPECT_EQ(ok.core(), c.rank() % 2);
  });
}

}  // namespace
// (appended) oversubscribed large-world stress

TEST(MailboxStress, SixtyFourRankWorldDeliversUnderAllSchemes) {
  // 8 nodes x 8 cores = 64 rank-threads on this host: heavy
  // oversubscription plus every routing role (origin, sending gateway,
  // receiving gateway) active at once.
  const topology topo(8, 8);
  for (const auto kind : ygm::routing::all_schemes) {
    ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
      comm_world world(c, topo, kind);
      std::uint64_t got = 0;
      mailbox<std::uint64_t> mb(world, [&](const std::uint64_t& v) { got += v; },
                                512);
      ygm::xoshiro256 rng(900 + static_cast<std::uint64_t>(c.rank()));
      constexpr int kSends = 300;
      for (int i = 0; i < kSends; ++i) {
        mb.send(static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(c.size()))),
                1);
      }
      mb.send_bcast(1000);
      mb.wait_empty();
      const auto total = c.allreduce(got, sim::op_sum{});
      const auto expect =
          static_cast<std::uint64_t>(c.size()) * kSends +
          1000ULL * static_cast<std::uint64_t>(c.size()) *
              static_cast<std::uint64_t>(c.size() - 1);
      EXPECT_EQ(total, expect) << ygm::routing::to_string(kind);
    });
  }
}

// (appended) chaos-PR regression tests: capacity accounting of the timed
// arrival stamp, and reentrant progress calls from a receive callback.

TEST(Mailbox, TimedArrivalStampCountsTowardCapacity) {
  // In a timed world each wire packet starts with an 8-byte virtual-time
  // arrival stamp. The stamp is part of what gets sent, so it must count
  // toward queued_bytes_: with capacity equal to stamp + one record, a
  // single send fills the buffer exactly and must trigger a flush.
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::no_route);
    world.attach_virtual_network(ygm::net::network_params::quartz_like());
    const std::size_t one_record =
        ygm::core::packet_record_size(1, sizeof(std::uint64_t));
    mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {},
                              sizeof(double) + one_record);
    mb.send(1 - c.rank(), 99);
    EXPECT_EQ(mb.stats().flushes, 1u);
    mb.wait_empty();
    EXPECT_EQ(mb.stats().deliveries, 1u);
  });
}

class MailboxModes : public ::testing::TestWithParam<ygm::progress::mode> {};

TEST_P(MailboxModes, ReentrantPollFromCallbackIsANoOp) {
  // A receive callback that drives progress itself (poll / test_empty — the
  // HavoqGT work-queue pattern) must not recursively re-enter the incoming
  // drain: with many packets queued that recursion nests once per packet
  // and clobbers the forwarding scratch buffer. Reentrant calls are no-ops.
  // In engine mode the same holds for the engine-deferred batches a
  // callback's poll() would otherwise drain nested inside the current one.
  // A nested test_empty() must also report false and leave the detector
  // alone: consuming the verdict there strands the outer wait_empty().
  ygm::launch({.nranks = 2, .progress_mode = GetParam()}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    mailbox<std::uint64_t>* mbp = nullptr;
    int depth = 0;
    int max_depth = 0;
    int nested_empty = 0;
    std::uint64_t got = 0;
    mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          ++depth;
          if (depth > max_depth) max_depth = depth;
          got += v;
          mbp->poll();
          if (mbp->test_empty()) ++nested_empty;
          --depth;
        },
        64);
    mbp = &mb;
    if (c.rank() == 1) {
      for (int i = 0; i < 100; ++i) mb.send(0, 1);
    }
    mb.wait_empty();
    if (c.rank() == 0) {
      EXPECT_EQ(got, 100u);
      EXPECT_EQ(max_depth, 1);
      EXPECT_EQ(nested_empty, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Progress, MailboxModes,
    ::testing::Values(ygm::progress::mode::polling,
                      ygm::progress::mode::engine),
    [](const ::testing::TestParamInfo<ygm::progress::mode>& info) {
      return std::string(ygm::progress::to_string(info.param));
    });
