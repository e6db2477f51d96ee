// Chaos-mode tests: seeded fault injection (transport/chaos.hpp) against the
// delivery-invariant checker (core/invariants.hpp), plus deterministic unit
// tests of each fault mechanism. docs/CHAOS.md has the methodology and the
// seed-reproduction recipe.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/invariants.hpp"
#include "core/ygm.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace sim = ygm::mpisim;
using sim::chaos_config;
using ygm::core::comm_world;
using ygm::core::delivery_ledger;
using ygm::core::mailbox;
using ygm::core::probe_msg;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ----------------------------------------------------------- chaos sweep
//
// The tentpole test: random traffic + broadcasts under seeded adversity,
// all delivery invariants checked at quiescence. Each scheme cell sweeps
// its own block of 16 seeds while the remaining dimensions — machine
// shape, capacity (down to 1 byte: flush on every send), timed
// virtual-time mode, light/heavy chaos, serialized self-sends — rotate
// with the seed, so the 64-trial default shard touches the whole matrix.
// tools/stress_ygm runs the same harness at arbitrary scale.

constexpr std::uint32_t kSeedsPerCell = 16;

struct sweep_cell {
  scheme_kind kind;
  std::uint32_t first_seed;  ///< disjoint blocks: the suite covers 0..63
};

// Cell names keep their "_mailbox" suffix so the test IDs stay stable.
std::string cell_name(const ::testing::TestParamInfo<sweep_cell>& info) {
  return std::string(ygm::routing::to_string(info.param.kind)) + "_mailbox";
}

std::vector<sweep_cell> sweep_cells() {
  std::vector<sweep_cell> cells;
  for (auto kind : ygm::routing::all_schemes) {
    cells.push_back(
        {kind, kSeedsPerCell * static_cast<std::uint32_t>(cells.size())});
  }
  return cells;
}

trial_config make_trial(const sweep_cell& cell, std::uint64_t seed) {
  static constexpr std::pair<int, int> kTopos[] = {
      {2, 2}, {1, 4}, {4, 2}, {2, 3}};
  static constexpr std::size_t kCapacities[] = {1, 24, 96, 65536};

  trial_config t;
  t.seed = seed;
  t.scheme = cell.kind;
  const auto [n, c] = kTopos[seed % 4];
  t.nodes = n;
  t.cores = c;
  t.capacity = kCapacities[(seed / 2) % 4];
  t.timed = ((seed >> 2) % 2) == 1;
  t.serialize_self_sends = (seed % 4) == 2;
  t.msgs_per_rank = 30;
  t.bcasts_per_rank = 3;
  t.epochs = 2;
  t.chaos = (seed % 2) == 0 ? chaos_config::light(seed) : chaos_config::heavy(seed);
  return t;
}

/// Run one trial end to end; returns all ranks' violations (rank 0's view).
std::vector<std::string> sweep_one(const trial_config& t) {
  std::vector<std::string> all;
  ygm::launch({.nranks = t.num_ranks(), .chaos = t.chaos}, [&](sim::comm& c) {
    const auto local = run_chaos_trial(c, t);
    const auto gathered = c.gather(local, 0);
    if (c.rank() == 0) {
      for (const auto& per_rank : gathered) {
        all.insert(all.end(), per_rank.begin(), per_rank.end());
      }
    }
  });
  return all;
}

class ChaosSweep : public ::testing::TestWithParam<sweep_cell> {};

TEST_P(ChaosSweep, InvariantsHoldUnderSeededAdversity) {
  const auto& cell = GetParam();
  for (std::uint64_t s = cell.first_seed; s < cell.first_seed + kSeedsPerCell;
       ++s) {
    const auto t = make_trial(cell, s);
    const auto violations = sweep_one(t);
    EXPECT_TRUE(violations.empty())
        << "REPRO: stress_ygm recipe -> " << t.describe() << "\n"
        << [&] {
             std::string joined;
             for (const auto& v : violations) joined += "  " + v + "\n";
             return joined;
           }();
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, ChaosSweep, ::testing::ValuesIn(sweep_cells()),
                         cell_name);

// --------------------------------------------- deterministic fault checks

TEST(ChaosUnit, IprobeMissCapBoundsConsecutiveFalseNegatives) {
  chaos_config cfg;
  cfg.seed = 9;
  cfg.iprobe_miss_prob = 1.0;  // every eligible probe misses...
  cfg.max_consecutive_misses = 4;  // ...but never more than 4 in a row
  ygm::launch({.nranks = 2, .chaos = cfg}, [&](sim::comm& c) {
    constexpr int kTag = 5;
    if (c.rank() == 1) c.send(42, 0, kTag);
    c.barrier();  // message is queued at rank 0 before it probes
    if (c.rank() == 0) {
      int misses = 0;
      std::optional<sim::status> st;
      while (!(st = c.iprobe(1, kTag))) ++misses;
      EXPECT_EQ(misses, 4);
      EXPECT_EQ(c.recv<int>(1, kTag), 42);
    }
    c.barrier();
  });
}

TEST(ChaosUnit, PerSourceOrderSurvivesMaximalDelay) {
  // MPI non-overtaking: even with every message delayed by a random number
  // of ticks, one (source, context) stream may never reorder.
  chaos_config cfg;
  cfg.seed = 31;
  cfg.delay_prob = 1.0;
  cfg.max_delay_ticks = 16;
  ygm::launch({.nranks = 2, .chaos = cfg}, [&](sim::comm& c) {
    constexpr int kTag = 7;
    constexpr int kCount = 50;
    if (c.rank() == 1) {
      for (int i = 0; i < kCount; ++i) c.send(i, 0, kTag);
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(c.recv<int>(1, kTag), i);
      }
    }
    c.barrier();
  });
}

// A blocked receiver whose only matching message is delay-hidden must still
// complete: the backend's bounded wait returns to the receive loop, whose
// next match re-ticks the receiver's clock until the delay expires.
void blocking_recv_ages_delays(ygm::transport::backend_kind backend) {
  chaos_config cfg;
  cfg.seed = 3;
  cfg.delay_prob = 1.0;
  cfg.max_delay_ticks = 64;
  const ygm::run_options o{.nranks = 2, .backend = backend, .chaos = cfg};
  ygm::launch(o, [&](sim::comm& c) {
    if (c.rank() == 1) c.send(std::string("late"), 0, 2);
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv<std::string>(1, 2), "late");
    }
    c.barrier();
  });
}

TEST(ChaosUnit, BlockingRecvAgesDelaysInsteadOfDeadlocking) {
  blocking_recv_ages_delays(ygm::transport::backend_kind::inproc);
}

class ChaosUnitOn
    : public ::testing::TestWithParam<ygm::transport::backend_kind> {};

TEST_P(ChaosUnitOn, BlockingRecvAgesDelaysInsteadOfDeadlocking) {
  blocking_recv_ages_delays(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ChaosUnitOn,
    ::testing::Values(ygm::transport::backend_kind::socket,
                      ygm::transport::backend_kind::shm),
    [](const ::testing::TestParamInfo<ygm::transport::backend_kind>& info) {
      return std::string(ygm::transport::to_string(info.param));
    });

TEST(ChaosUnit, PresetsAndEnvParsingRoundTrip) {
  const auto heavy = chaos_config::heavy(123);
  EXPECT_TRUE(heavy.enabled());
  EXPECT_TRUE(heavy.delays_active());
  EXPECT_TRUE(heavy.probe_misses_active());
  EXPECT_FALSE(chaos_config{}.enabled());

  ASSERT_EQ(unsetenv("YGM_CHAOS"), 0);
  EXPECT_FALSE(chaos_config::from_env().has_value());

  ASSERT_EQ(setenv("YGM_CHAOS", "heavy:123", 1), 0);
  const auto parsed = chaos_config::from_env();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, heavy.seed);
  EXPECT_EQ(parsed->delay_prob, heavy.delay_prob);
  EXPECT_EQ(parsed->max_delay_ticks, heavy.max_delay_ticks);
  EXPECT_EQ(parsed->iprobe_miss_prob, heavy.iprobe_miss_prob);
  ASSERT_EQ(unsetenv("YGM_CHAOS"), 0);

  ASSERT_EQ(setenv("YGM_CHAOS_SEED", "7", 1), 0);
  ASSERT_EQ(setenv("YGM_CHAOS_DELAY_PROB", "0.5", 1), 0);
  ASSERT_EQ(setenv("YGM_CHAOS_MAX_DELAY_TICKS", "9", 1), 0);
  const auto knobs = chaos_config::from_env();
  ASSERT_TRUE(knobs.has_value());
  EXPECT_EQ(knobs->seed, 7u);
  EXPECT_DOUBLE_EQ(knobs->delay_prob, 0.5);
  EXPECT_EQ(knobs->max_delay_ticks, 9u);
  ASSERT_EQ(unsetenv("YGM_CHAOS_SEED"), 0);
  ASSERT_EQ(unsetenv("YGM_CHAOS_DELAY_PROB"), 0);
  ASSERT_EQ(unsetenv("YGM_CHAOS_MAX_DELAY_TICKS"), 0);
}

TEST(ChaosUnit, SameSeedSameFaultPattern) {
  // Determinism contract: a given seed yields the same iprobe miss pattern
  // for the same probe stream, independent of wall-clock interleaving.
  const auto probe_pattern = [](std::uint64_t seed) {
    std::vector<int> pattern;
    chaos_config cfg;
    cfg.seed = seed;
    cfg.iprobe_miss_prob = 0.5;
    cfg.max_consecutive_misses = 8;
    ygm::launch({.nranks = 2, .chaos = cfg}, [&](sim::comm& c) {
      if (c.rank() == 1) {
        for (int i = 0; i < 20; ++i) c.send(i, 0, 4);
      }
      c.barrier();
      if (c.rank() == 0) {
        for (int i = 0; i < 20; ++i) {
          int misses = 0;
          while (!c.iprobe(1, 4)) ++misses;
          pattern.push_back(misses);
          EXPECT_EQ(c.recv<int>(1, 4), i);
        }
      }
      c.barrier();
    });
    return pattern;
  };
  const auto a = probe_pattern(555);
  const auto b = probe_pattern(555);
  const auto c = probe_pattern(556);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // distinct seeds give distinct adversity
}

// --------------------------------------- ledger unit behaviour (no chaos)

TEST(DeliveryLedger, FlagsDuplicatesSealedDeliveriesAndCorruption) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    delivery_ledger ledger(0, 1);
    auto m = ledger.make_p2p(0, 16);
    ledger.note_delivery(m);
    ledger.note_delivery(m);  // duplicate
    ledger.seal();
    auto m2 = ledger.make_p2p(0, 8);
    ledger.note_delivery(m2);  // post-seal
    ledger.unseal();
    auto m3 = ledger.make_p2p(0, 8);
    m3.filler[3] ^= 0xFF;
    ledger.note_delivery(m3);  // corrupted

    ygm::core::mailbox_stats st;
    st.app_sends = 3;
    st.deliveries = 4;
    const auto v = ledger.verify(c, st);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_NE(v[0].find("duplicate"), std::string::npos);
    EXPECT_NE(v[1].find("after quiescence"), std::string::npos);
    EXPECT_NE(v[2].find("corrupted"), std::string::npos);
  });
}

// ------------------------------------------- telemetry <-> ledger bridge

TEST(ChaosTelemetry, CountersAgreeWithLedgerAccounting) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "telemetry counters compiled out with -DYGM_TELEMETRY=OFF";
#endif
  // The same counters the ledger cross-checks per rank (mailbox_stats) are
  // published into telemetry; at global scope the merged counters must
  // reproduce the sweep's exact arithmetic.
  trial_config t;
  t.seed = 77;
  t.scheme = scheme_kind::nlnr;
  t.nodes = 2;
  t.cores = 2;
  t.capacity = 96;
  t.msgs_per_rank = 25;
  t.bcasts_per_rank = 2;
  t.epochs = 2;
  t.chaos = chaos_config::light(77);

  ygm::telemetry::session sess;
  ygm::telemetry::set_global(&sess);
  std::vector<std::string> violations;
  ygm::launch({.nranks = t.num_ranks(), .chaos = t.chaos}, [&](sim::comm& c) {
    const auto local = run_chaos_trial(c, t);
    if (c.rank() == 0) violations = local;
  });
  ygm::telemetry::set_global(nullptr);
  EXPECT_TRUE(violations.empty());

  const auto ranks = static_cast<std::uint64_t>(t.num_ranks());
  const auto sends =
      ranks * static_cast<std::uint64_t>(t.epochs * t.msgs_per_rank);
  const auto bcast_deliveries = ranks * (ranks - 1) *
                                static_cast<std::uint64_t>(t.epochs) *
                                static_cast<std::uint64_t>(t.bcasts_per_rank);
  const auto m = sess.merged_metrics();
  EXPECT_EQ(m.counters().at("mailbox.app_sends"), sends);
  EXPECT_EQ(m.counters().at("mailbox.deliveries"), sends + bcast_deliveries);
  EXPECT_EQ(m.counters().at("mailbox.hops_sent"),
            m.counters().at("mailbox.hops_received"));
}

// --------------------------------- self-send serialization (debug knob)

struct asym_msg {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  // Deliberately asymmetric: remote round-trips swap the fields. With the
  // default self-send bypass a single-rank run never notices.
  template <class Ar>
  void serialize(Ar& ar) {
    if constexpr (std::is_same_v<Ar, ygm::ser::oarchive>) {
      ar & a & b;
    } else {
      ar & b & a;
    }
  }
};

TEST(ChaosSelfSend, SerializedLoopbackSurfacesAsymmetricSerialize) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    asym_msg got;
    mailbox<asym_msg> mb(world, [&](const asym_msg& m) { got = m; });

    mb.send(0, {1, 2});  // bypass: the object is handed through untouched
    EXPECT_EQ(got.a, 1u);
    EXPECT_EQ(got.b, 2u);

    world.set_serialize_self_sends(true);
    mb.send(0, {1, 2});  // ser:: round trip exposes the field swap
    EXPECT_EQ(got.a, 2u);
    EXPECT_EQ(got.b, 1u);
    mb.wait_empty();
  });
}

TEST(ChaosSelfSend, SymmetricTypesRoundTripUnchanged) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    std::vector<probe_msg> got;
    mailbox<probe_msg> mb(world,
                          [&](const probe_msg& m) { got.push_back(m); });
    world.set_serialize_self_sends(true);
    delivery_ledger ledger(0, 1);
    mb.send(0, ledger.make_p2p(0, 21));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_TRUE(got[0].filler_intact());
    EXPECT_EQ(got[0].filler.size(), 21u);
    mb.wait_empty();
  });
}

}  // namespace
