// Model-vs-execution validation: the analytic evaluator (net/) claims to
// compute the same per-core traffic the mailbox actually generates. These
// tests run the real mailbox under the evaluator's traffic assumptions
// (uniform all-to-all, broadcast floods) and compare flows — the
// cross-validation that justifies using the evaluator at paper scale
// (DESIGN.md §2, EXPERIMENTS.md).
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
using ygm::core::mailbox_stats;
using ygm::routing::router;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// Drive uniform all-to-all traffic (kMsgs fixed-size messages per rank) and
// return the aggregate stats across all ranks.
mailbox_stats run_uniform(const topology& topo, scheme_kind kind, int msgs,
                          std::size_t capacity) {
  mailbox_stats agg;
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, kind);
    mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {}, capacity);
    ygm::xoshiro256 rng(5 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < msgs; ++i) {
      // Uniform over *other* ranks (self-sends skip the wire and would
      // dilute the comparison).
      int dest = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(c.size() - 1)));
      if (dest >= c.rank()) ++dest;
      mb.send(dest, rng());
    }
    mb.wait_empty();
    const auto rows = c.gather(mb.stats(), 0);
    if (c.rank() == 0) {
      for (const auto& s : rows) agg += s;
    }
  });
  return agg;
}

class ModelValidation : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(ModelValidation, RemoteAndLocalByteFlowsMatchEvaluator) {
  const topology topo(4, 4);
  const int msgs = 4000;
  const std::size_t capacity = 2048;

  // Each u64 message costs 8 payload bytes + 2 framing bytes on the wire.
  const double wire_msg_bytes = 10.0;

  const auto agg = run_uniform(topo, GetParam(), msgs, capacity);

  ygm::net::traffic_model tm;
  tm.p2p_bytes = msgs * wire_msg_bytes;
  tm.p2p_msg_bytes = wire_msg_bytes;
  const auto predicted =
      ygm::net::evaluate(router(GetParam(), topo),
                         ygm::net::network_params::quartz_like(), capacity,
                         tm);

  const double ranks = topo.num_ranks();
  const double measured_remote = static_cast<double>(agg.remote_bytes) / ranks;
  const double measured_local = static_cast<double>(agg.local_bytes) / ranks;

  // Byte flows are structural (hop counts x volume); they must agree to
  // within the framing approximation.
  EXPECT_NEAR(measured_remote, predicted.remote_bytes,
              0.15 * predicted.remote_bytes + 1)
      << ygm::routing::to_string(GetParam());
  if (predicted.local_bytes > 0) {
    EXPECT_NEAR(measured_local, predicted.local_bytes,
                0.15 * predicted.local_bytes + 1);
  } else {
    EXPECT_EQ(measured_local, 0);
  }

  // Hop/event totals: sends == receives, and per-core handled events match
  // the evaluator's count.
  EXPECT_EQ(agg.hops_sent, agg.hops_received);
  const double measured_events =
      static_cast<double>(agg.hops_sent + agg.hops_received) / ranks;
  EXPECT_NEAR(measured_events, predicted.handled_msgs,
              0.1 * predicted.handled_msgs);
}

TEST_P(ModelValidation, BroadcastFlowsMatchEvaluator) {
  const topology topo(4, 4);
  const int bcasts = 200;
  const std::size_t capacity = 2048;

  mailbox_stats agg;
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, GetParam());
    mailbox<std::uint64_t> mb(world, [](const std::uint64_t&) {}, capacity);
    for (int i = 0; i < bcasts; ++i) {
      mb.send_bcast(static_cast<std::uint64_t>(i));
    }
    mb.wait_empty();
    const auto rows = c.gather(mb.stats(), 0);
    if (c.rank() == 0) {
      for (const auto& s : rows) agg += s;
    }
  });

  ygm::net::traffic_model tm;
  tm.bcast_count = bcasts;
  tm.bcast_msg_bytes = 10.0;  // u64 payload + framing
  const auto predicted =
      ygm::net::evaluate(router(GetParam(), topo),
                         ygm::net::network_params::quartz_like(), capacity,
                         tm);

  const double ranks = topo.num_ranks();
  EXPECT_NEAR(static_cast<double>(agg.remote_bytes) / ranks,
              predicted.remote_bytes, 0.15 * predicted.remote_bytes + 1)
      << ygm::routing::to_string(GetParam());
  EXPECT_NEAR(static_cast<double>(agg.local_bytes) / ranks,
              predicted.local_bytes, 0.15 * predicted.local_bytes + 1);

  // And the §III formulas directly: total remote hop records equal
  // bcasts * ranks * bcast_remote_messages().
  const router r(GetParam(), topo);
  const auto expected_remote_records =
      static_cast<std::uint64_t>(bcasts) *
      static_cast<std::uint64_t>(topo.num_ranks()) *
      static_cast<std::uint64_t>(r.bcast_remote_messages());
  // remote hop records = hops_sent minus local hop records; recover local
  // records from the tree structure instead: every rank receives each
  // foreign bcast exactly once => total receives = bcasts * P * (P-1)...
  // hops include forwarding, so compare via bytes: remote records =
  // remote_bytes / wire bytes per record.
  const double records =
      static_cast<double>(agg.remote_bytes) / tm.bcast_msg_bytes;
  EXPECT_NEAR(records, static_cast<double>(expected_remote_records),
              0.15 * static_cast<double>(expected_remote_records) + 1);
}

TEST_P(ModelValidation, PacketSizeOrderingMatchesPrediction) {
  // The evaluator's central claim: for fixed capacity, schemes order wire
  // packet sizes as NoRoute < NodeLocal/NodeRemote < NLNR. Verify the
  // executed mailbox produces the same ordering (pairwise against NoRoute).
  const topology topo(4, 4);
  if (GetParam() == scheme_kind::no_route) GTEST_SKIP();
  const auto base = run_uniform(topo, scheme_kind::no_route, 3000, 2048);
  const auto routed = run_uniform(topo, GetParam(), 3000, 2048);
  EXPECT_GT(routed.avg_remote_packet_bytes(),
            base.avg_remote_packet_bytes())
      << ygm::routing::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ModelValidation,
    ::testing::ValuesIn(std::vector<scheme_kind>(
        std::begin(ygm::routing::all_schemes),
        std::end(ygm::routing::all_schemes))),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
      return std::string(ygm::routing::to_string(info.param));
    });

}  // namespace
