// Unit, integration, and stress tests for the mpisim communicator (mpisim/)
// on ranks started by ygm::launch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/launch.hpp"

namespace {

namespace sim = ygm::mpisim;

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::atomic<std::uint64_t> rank_mask{0};
  ygm::launch({.nranks = 8}, [&](sim::comm& c) {
    count.fetch_add(1);
    rank_mask.fetch_or(1ULL << c.rank());
    EXPECT_EQ(c.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xffu);
}

TEST(Runtime, SingleRankWorldWorks) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    int v = 9;
    c.bcast(v, 0);
    EXPECT_EQ(v, 9);
    EXPECT_EQ(c.allreduce(4, sim::op_sum{}), 4);
  });
}

TEST(Runtime, PropagatesRankExceptionsWithoutDeadlock) {
  EXPECT_THROW(ygm::launch({.nranks = 4},
                           [](sim::comm& c) {
                             if (c.rank() == 2) {
                               throw std::runtime_error("rank 2 failed");
                             }
                             // Other ranks block forever; the abort must
                             // wake them.
                             (void)c.recv_bytes(sim::any_source, 0);
                           }),
               std::runtime_error);
}

TEST(Runtime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(ygm::launch({.nranks = 0}, [](sim::comm&) {}), ygm::error);
}

// --------------------------------------------------------- point-to-point

TEST(PointToPoint, SendRecvRoundTrip) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      c.send(std::string("ping"), 1, 7);
      EXPECT_EQ(c.recv<std::string>(1, 8), "pong");
    } else {
      EXPECT_EQ(c.recv<std::string>(0, 7), "ping");
      c.send(std::string("pong"), 0, 8);
    }
  });
}

TEST(PointToPoint, SelfSendIsDeliverable) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    c.send(42, 0, 3);
    EXPECT_EQ(c.recv<int>(0, 3), 42);
  });
}

TEST(PointToPoint, PreservesOrderPerSenderAndTag) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    constexpr int kCount = 500;
    if (c.rank() == 0) {
      for (int i = 0; i < kCount; ++i) c.send(i, 1, 1);
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(c.recv<int>(0, 1), i);
      }
    }
  });
}

TEST(PointToPoint, TagMatchingSelectsAcrossArrivalOrder) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, 10);
      c.send(2, 1, 20);
      c.send(3, 1, 30);
    } else {
      // Receive out of arrival order by tag.
      EXPECT_EQ(c.recv<int>(0, 30), 3);
      EXPECT_EQ(c.recv<int>(0, 10), 1);
      EXPECT_EQ(c.recv<int>(0, 20), 2);
    }
  });
}

TEST(PointToPoint, AnySourceReceivesFromEveryone) {
  ygm::launch({.nranks = 6}, [](sim::comm& c) {
    if (c.rank() == 0) {
      std::vector<bool> seen(static_cast<std::size_t>(c.size()), false);
      for (int i = 1; i < c.size(); ++i) {
        sim::status st;
        const int v = c.recv<int>(sim::any_source, 5, &st);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_FALSE(seen[static_cast<std::size_t>(st.source)]);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
    } else {
      c.send(c.rank() * 100, 0, 5);
    }
  });
}

TEST(PointToPoint, AnyTagReportsActualTag) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      c.send(std::string("x"), 1, 17);
    } else {
      sim::status st;
      (void)c.recv<std::string>(0, sim::any_tag, &st);
      EXPECT_EQ(st.tag, 17);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(PointToPoint, StatusReportsByteCount) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      c.send_bytes(1, 2, std::vector<std::byte>(123));
    } else {
      sim::status st;
      const auto bytes = c.recv_bytes(0, 2, &st);
      EXPECT_EQ(bytes.size(), 123u);
      EXPECT_EQ(st.byte_count, 123u);
    }
  });
}

TEST(PointToPoint, ProbeDoesNotConsume) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      c.send(7, 1, 4);
    } else {
      const auto st = c.probe(0, 4);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 4);
      // Probe twice, then the message must still be receivable. Under
      // chaos an iprobe may miss up to max_consecutive_misses times in a
      // row, so one more try must see it; a probe that consumed the
      // message fails here instead of hanging in the recv below.
      const auto& chaos = ygm::detail::current_run()->chaos;
      const std::uint32_t tries =
          (chaos ? chaos->max_consecutive_misses : 0) + 1;
      bool seen = false;
      for (std::uint32_t i = 0; i < tries && !seen; ++i) {
        seen = c.iprobe(0, 4).has_value();
      }
      ASSERT_TRUE(seen) << "no iprobe of " << tries << " saw the message";
      EXPECT_EQ(c.recv<int>(0, 4), 7);
      EXPECT_FALSE(c.iprobe(0, 4).has_value());
    }
  });
}

TEST(PointToPoint, IprobeReturnsNulloptWhenEmpty) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    EXPECT_FALSE(c.iprobe(sim::any_source, 999).has_value());
    c.barrier();
  });
}

TEST(PointToPoint, RejectsOutOfRangeTag) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    EXPECT_THROW(c.send(1, 0, -5), ygm::error);
    EXPECT_THROW(c.send(1, 0, sim::tag_ub + 1), ygm::error);
  });
}

// ------------------------------------------------------------ nonblocking

TEST(Nonblocking, IsendCompletesImmediately) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      auto req = c.isend(11, 1, 0);
      EXPECT_TRUE(req.test());
      req.wait();
    } else {
      EXPECT_EQ(c.recv<int>(0, 0), 11);
    }
  });
}

TEST(Nonblocking, IrecvCompletesWhenMessageArrives) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 1) {
      int out = 0;
      auto req = c.irecv(out, 0, 6);
      c.send(1, 0, 60);  // tell rank 0 we have posted
      req.wait();
      EXPECT_EQ(out, 99);
    } else {
      EXPECT_EQ(c.recv<int>(1, 60), 1);
      c.send(99, 1, 6);
    }
  });
}

TEST(Nonblocking, WaitAllDrainsMixedRequests) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    std::vector<int> out(static_cast<std::size_t>(c.size()), -1);
    std::vector<sim::request> reqs;
    for (int r = 0; r < c.size(); ++r) {
      if (r == c.rank()) continue;
      reqs.push_back(c.isend(c.rank(), r, 1));
      reqs.push_back(c.irecv(out[static_cast<std::size_t>(r)], r, 1));
    }
    sim::wait_all(reqs);
    for (int r = 0; r < c.size(); ++r) {
      if (r != c.rank()) {
        EXPECT_EQ(out[static_cast<std::size_t>(r)], r);
      }
    }
  });
}

// ------------------------------------------------------------ collectives

TEST(Collectives, BarrierSynchronizes) {
  // Each rank increments before the barrier; after it, all increments must
  // be visible.
  std::atomic<int> before{0};
  ygm::launch({.nranks = 8}, [&](sim::comm& c) {
    before.fetch_add(1);
    c.barrier();
    EXPECT_EQ(before.load(), 8);
  });
}

TEST(Collectives, BcastFromEveryRoot) {
  ygm::launch({.nranks = 5}, [](sim::comm& c) {
    for (int root = 0; root < c.size(); ++root) {
      std::string v = c.rank() == root ? "payload" + std::to_string(root) : "";
      c.bcast(v, root);
      EXPECT_EQ(v, "payload" + std::to_string(root));
    }
  });
}

TEST(Collectives, ReduceSumsAtRoot) {
  ygm::launch({.nranks = 7}, [](sim::comm& c) {
    const int total = c.reduce(c.rank() + 1, sim::op_sum{}, 3);
    if (c.rank() == 3) {
      EXPECT_EQ(total, 7 * 8 / 2);
    }
  });
}

TEST(Collectives, AllreduceAgreesEverywhere) {
  ygm::launch({.nranks = 6}, [](sim::comm& c) {
    EXPECT_EQ(c.allreduce(c.rank(), sim::op_max{}), c.size() - 1);
    EXPECT_EQ(c.allreduce(c.rank(), sim::op_min{}), 0);
    EXPECT_EQ(c.allreduce(1ULL << c.rank(), sim::op_bor{}), 0x3fULL);
  });
}

TEST(Collectives, AllreduceVecIsElementwise) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    std::vector<int> v{c.rank(), 10 * c.rank(), 1};
    const auto r = c.allreduce_vec(v, sim::op_sum{});
    EXPECT_EQ(r, (std::vector<int>{6, 60, 4}));
  });
}

TEST(Collectives, GatherOrdersByRank) {
  ygm::launch({.nranks = 5}, [](sim::comm& c) {
    const auto got = c.gather(std::string(1, static_cast<char>('a' + c.rank())),
                              2);
    if (c.rank() == 2) {
      ASSERT_EQ(got.size(), 5u);
      EXPECT_EQ(got[0], "a");
      EXPECT_EQ(got[4], "e");
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Collectives, AllgatherAgreesEverywhere) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    const auto got = c.allgather(c.rank() * c.rank());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 4, 9}));
  });
}

TEST(Collectives, ScatterDeliversPerRankPieces) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    std::vector<std::vector<int>> bufs;
    if (c.rank() == 1) {
      for (int r = 0; r < 4; ++r) bufs.push_back({r, r + 10});
    }
    const auto mine = c.scatter(bufs, 1);
    EXPECT_EQ(mine, (std::vector<int>{c.rank(), c.rank() + 10}));
  });
}

TEST(Collectives, AlltoallvExchangesPersonalizedData) {
  ygm::launch({.nranks = 5}, [](sim::comm& c) {
    std::vector<std::vector<int>> send(static_cast<std::size_t>(c.size()));
    for (int d = 0; d < c.size(); ++d) {
      // rank r sends d copies of (r*100 + d) to rank d.
      send[static_cast<std::size_t>(d)]
          .assign(static_cast<std::size_t>(d), c.rank() * 100 + d);
    }
    const auto got = c.alltoallv(send);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(c.size()));
    for (int s = 0; s < c.size(); ++s) {
      const auto& v = got[static_cast<std::size_t>(s)];
      ASSERT_EQ(v.size(), static_cast<std::size_t>(c.rank()));
      for (int x : v) EXPECT_EQ(x, s * 100 + c.rank());
    }
  });
}

TEST(Collectives, WtimeAdvancesMonotonically) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    const double t0 = c.wtime();
    c.barrier();
    const double t1 = c.wtime();
    EXPECT_GE(t1, t0);
  });
}

// ----------------------------------------------------------- communicators

TEST(Communicators, SplitByParityFormsTwoGroups) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    auto sub = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Sum of parent ranks within my group.
    const int expect = c.rank() % 2 == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7;
    EXPECT_EQ(sub.allreduce(c.rank(), sim::op_sum{}), expect);
  });
}

TEST(Communicators, SplitKeyControlsOrdering) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    // Reverse the ordering: highest parent rank gets rank 0.
    auto sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.rank(), c.size() - 1 - c.rank());
  });
}

TEST(Communicators, SubCommTrafficDoesNotLeakAcrossComms) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    auto sub = c.split(c.rank() % 2, 0);
    // Same tag on both communicators; messages must stay segregated.
    const int peer_sub = 1 - sub.rank();
    const int peer_world = (c.rank() + 2) % 4;
    sub.send(1000 + c.rank(), peer_sub, 3);
    c.send(2000 + c.rank(), peer_world, 3);
    const int from_sub = sub.recv<int>(peer_sub, 3);
    const int from_world = c.recv<int>(peer_world, 3);
    EXPECT_GE(from_sub, 1000);
    EXPECT_LT(from_sub, 2000);
    EXPECT_GE(from_world, 2000);
  });
}

TEST(Communicators, GridSplitSupportsRowAndColumnComms) {
  // The 2D decomposition pattern CombBLAS-lite uses.
  ygm::launch({.nranks = 9}, [](sim::comm& c) {
    const int row = c.rank() / 3;
    const int col = c.rank() % 3;
    auto row_comm = c.split(row, col);
    auto col_comm = c.split(col, row);
    EXPECT_EQ(row_comm.size(), 3);
    EXPECT_EQ(col_comm.size(), 3);
    EXPECT_EQ(row_comm.rank(), col);
    EXPECT_EQ(col_comm.rank(), row);
    EXPECT_EQ(row_comm.allreduce(col, sim::op_sum{}), 3);
    EXPECT_EQ(col_comm.allreduce(row, sim::op_sum{}), 3);
  });
}

TEST(Communicators, DupIsolatesTraffic) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    auto d = c.dup();
    const int peer = 1 - c.rank();
    c.send(1, peer, 0);
    d.send(2, peer, 0);
    EXPECT_EQ(d.recv<int>(peer, 0), 2);
    EXPECT_EQ(c.recv<int>(peer, 0), 1);
  });
}

// ---------------------------------------------------------------- stress

class MpisimStress : public ::testing::TestWithParam<int> {};

TEST_P(MpisimStress, RandomizedTrafficIsDeliveredExactly) {
  const int nranks = GetParam();
  // Each rank sends a random number of tagged messages to random peers,
  // then totals are reconciled with an allreduce and received exactly.
  ygm::launch({.nranks = nranks}, [&](sim::comm& c) {
    ygm::xoshiro256 rng(1000 + static_cast<std::uint64_t>(c.rank()));
    const int sends = 50 + static_cast<int>(rng.below(100));
    std::vector<std::uint64_t> sent_to(static_cast<std::size_t>(c.size()), 0);
    std::vector<std::uint64_t> sum_to(static_cast<std::size_t>(c.size()), 0);
    for (int i = 0; i < sends; ++i) {
      const int dest = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(c.size())));
      const std::uint64_t value = rng();
      c.send(value, dest, 9);
      ++sent_to[static_cast<std::size_t>(dest)];
      sum_to[static_cast<std::size_t>(dest)] += value;
    }
    const auto expected_count = c.allreduce_vec(sent_to, sim::op_sum{});
    const auto expected_sum = c.allreduce_vec(sum_to, sim::op_sum{});

    std::uint64_t got_sum = 0;
    const auto my_count = expected_count[static_cast<std::size_t>(c.rank())];
    for (std::uint64_t i = 0; i < my_count; ++i) {
      got_sum += c.recv<std::uint64_t>(sim::any_source, 9);
    }
    EXPECT_EQ(got_sum, expected_sum[static_cast<std::size_t>(c.rank())]);
    EXPECT_FALSE(c.iprobe(sim::any_source, 9).has_value());
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, MpisimStress,
                         ::testing::Values(1, 2, 3, 8, 16));

}  // namespace
// (appended) request/comm edge cases and large payloads

TEST(Nonblocking, TestAllMakesProgressIncrementally) {
  ygm::launch({.nranks = 3}, [](sim::comm& c) {
    if (c.rank() == 0) {
      int a = 0, b = 0;
      std::vector<sim::request> reqs;
      reqs.push_back(c.irecv(a, 1, 5));
      reqs.push_back(c.irecv(b, 2, 5));
      // Not complete until both arrive.
      c.send(1, 1, 9);  // release rank 1
      while (!sim::test_all(reqs)) {
      }
      EXPECT_EQ(a, 100);
      EXPECT_EQ(b, 200);
    } else if (c.rank() == 1) {
      (void)c.recv<int>(0, 9);
      c.send(100, 0, 5);
    } else {
      c.send(200, 0, 5);
    }
  });
}

TEST(PointToPoint, MegabytePayloadsSurvive) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    const std::size_t n = 4 << 20;
    if (c.rank() == 0) {
      std::vector<std::uint8_t> big(n);
      for (std::size_t i = 0; i < n; ++i) {
        big[i] = static_cast<std::uint8_t>(i * 31);
      }
      c.send(big, 1, 2);
    } else {
      const auto got = c.recv<std::vector<std::uint8_t>>(0, 2);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[0], 0);
      EXPECT_EQ(got[12345], static_cast<std::uint8_t>(12345u * 31));
      EXPECT_EQ(got[n - 1], static_cast<std::uint8_t>((n - 1) * 31));
    }
  });
}

TEST(Communicators, NestedSplitsCompose) {
  // Split a split: 8 -> two halves -> quarters; traffic stays scoped.
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    auto half = c.split(c.rank() / 4, c.rank());
    auto quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(half.size(), 4);
    EXPECT_EQ(quarter.size(), 2);
    const int peer = 1 - quarter.rank();
    quarter.send(c.rank(), peer, 0);
    const int got = quarter.recv<int>(peer, 0);
    // My quarter peer is the world rank differing by exactly 1 within the
    // same pair.
    EXPECT_EQ(got / 2, c.rank() / 2);
    EXPECT_NE(got, c.rank());
  });
}

TEST(Collectives, ManyBackToBackCollectivesKeepSequencing) {
  // Hammer the collective tag sequencing (seq wraps packed into tags).
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    for (int i = 0; i < 300; ++i) {
      int v = c.rank() == i % 4 ? i : -1;
      c.bcast(v, i % 4);
      ASSERT_EQ(v, i);
      ASSERT_EQ(c.allreduce(1, sim::op_sum{}), 4);
    }
  });
}

TEST(PointToPoint, PendingMessagesCountsQueuedTraffic) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) c.send(i, 1, 3);
      c.barrier();
    } else {
      c.barrier();
      EXPECT_EQ(c.pending_messages(), 5u);
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(c.recv<int>(0, 3), i);
      }
      EXPECT_EQ(c.pending_messages(), 0u);
    }
  });
}
