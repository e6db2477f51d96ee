// Progress-engine tests (core/progress.hpp, docs/PROGRESS.md).
//
// Covers the redesigned progress-control API end to end: the ygm::launch
// entry point and its precedence rules, the mpsc_ring handoff primitive,
// engine steal/pause/resume semantics, exception propagation from
// engine-executed callbacks, teardown with traffic still in flight, the
// reentrancy/engine-race exchange claim, and a ledger-verified chaos sweep
// across {inproc, socket} x {engine, polling}. The precedence tests run on
// every backend, since each forked rank process starts its own engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/invariants.hpp"
#include "core/ygm.hpp"
#include "routing/router.hpp"
#include "scoped_env.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/journey.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;
using ygm::test::scoped_env;

struct ping {
  std::uint64_t value = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & value;
  }
};

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::yield();
  }
  return pred();
}

// ------------------------------------------------------------- mode parsing

TEST(ProgressMode, NamesRoundTrip) {
  using ygm::progress::mode;
  EXPECT_EQ(ygm::progress::mode_from_name("polling"), mode::polling);
  EXPECT_EQ(ygm::progress::mode_from_name("engine"), mode::engine);
  EXPECT_EQ(ygm::progress::mode_from_name("Engine"), std::nullopt);
  EXPECT_EQ(ygm::progress::mode_from_name(""), std::nullopt);
  EXPECT_EQ(ygm::progress::to_string(mode::polling), "polling");
  EXPECT_EQ(ygm::progress::to_string(mode::engine), "engine");
}

TEST(ProgressMode, EnvDefaultsToPollingAndRejectsTypos) {
  {
    scoped_env env("YGM_PROGRESS", "");
    EXPECT_EQ(ygm::progress::mode_from_env(), ygm::progress::mode::polling);
  }
  {
    scoped_env env("YGM_PROGRESS", "engine");
    EXPECT_EQ(ygm::progress::mode_from_env(), ygm::progress::mode::engine);
  }
  {
    // A typo must throw, not silently fall back to polling (that would
    // fake engine coverage in CI).
    scoped_env env("YGM_PROGRESS", "engien");
    EXPECT_THROW(ygm::progress::mode_from_env(), ygm::error);
  }
}

// --------------------------------------------------------------- mpsc_ring

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  ygm::progress::mpsc_ring<int> r(3);
  EXPECT_EQ(r.capacity(), 4u);
  ygm::progress::mpsc_ring<int> r2(64);
  EXPECT_EQ(r2.capacity(), 64u);
}

TEST(MpscRing, FifoAndBackpressure) {
  ygm::progress::mpsc_ring<int> r(4);
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.try_push(int(i)));
  EXPECT_TRUE(r.full());
  int overflow = 99;
  EXPECT_FALSE(r.try_push(std::move(overflow)));  // full: backpressure
  for (int i = 0; i < 4; ++i) {
    const auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO
  }
  EXPECT_FALSE(r.try_pop().has_value());
  EXPECT_TRUE(r.empty());
}

TEST(MpscRing, MultiProducerExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  ygm::progress::mpsc_ring<std::uint64_t> r(64);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&r, &done, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::uint64_t v = (std::uint64_t(p) << 32) | std::uint64_t(i);
        while (!r.try_push(std::move(v))) std::this_thread::yield();
      }
      done.fetch_add(1);
    });
  }
  // Single consumer: every pushed value arrives exactly once, in order per
  // producer.
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t popped = 0;
  while (popped < std::uint64_t(kProducers) * kPerProducer) {
    if (auto v = r.try_pop()) {
      const auto p = *v >> 32;
      const auto i = *v & 0xffffffffu;
      ASSERT_LT(p, std::uint64_t(kProducers));
      EXPECT_EQ(i, next[static_cast<std::size_t>(p)]);
      ++next[static_cast<std::size_t>(p)];
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(r.empty());
}

// ------------------------------------------------- launch + precedence

/// Per rank, whether its process runs a progress engine. Collected through
/// launch_collect so forked ranks answer from their own process.
std::vector<bool> engines_running(const ygm::run_options& o) {
  std::vector<bool> running;
  for (const auto& blob :
       ygm::launch_collect(o, [](sim::comm&) {
         return ygm::ser::to_bytes(ygm::progress::current() != nullptr);
       })) {
    running.push_back(ygm::ser::from_bytes<bool>({blob.data(), blob.size()}));
  }
  return running;
}

class LaunchOn
    : public ::testing::TestWithParam<ygm::transport::backend_kind> {};

TEST_P(LaunchOn, FieldBeatsEnvBeatsDefault) {
  // Env says engine, field says polling: the field must win.
  scoped_env env("YGM_PROGRESS", "engine");
  EXPECT_EQ(engines_running({.nranks = 2,
                             .backend = GetParam(),
                             .progress_mode = ygm::progress::mode::polling}),
            std::vector<bool>(2, false));

  // No field: the env decides.
  EXPECT_EQ(engines_running({.nranks = 2, .backend = GetParam()}),
            std::vector<bool>(2, true));
}

TEST_P(LaunchOn, DefaultIsPolling) {
  scoped_env env("YGM_PROGRESS", "");
  EXPECT_EQ(engines_running({.nranks = 2, .backend = GetParam()}),
            std::vector<bool>(2, false));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, LaunchOn,
    ::testing::Values(ygm::transport::backend_kind::inproc,
                      ygm::transport::backend_kind::socket,
                      ygm::transport::backend_kind::shm),
    [](const auto& info) {
      return std::string(ygm::transport::to_string(info.param));
    });

TEST(Launch, CollectRoundTrips) {
  ygm::run_options o;
  o.nranks = 3;
  o.progress_mode = ygm::progress::mode::engine;
  const auto blobs = ygm::launch_collect(o, [](sim::comm& c) {
    std::vector<std::byte> b;
    ygm::ser::append_bytes(std::uint64_t(c.rank() * 10), b);
    return b;
  });
  ASSERT_EQ(blobs.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const auto v = ygm::ser::from_bytes<std::uint64_t>(
        {blobs[static_cast<std::size_t>(r)].data(),
         blobs[static_cast<std::size_t>(r)].size()});
    EXPECT_EQ(v, std::uint64_t(r) * 10);
  }
}

// ------------------------------------------------------ engine mechanics

TEST(ProgressEngine, StartStopMidRunAndCounters) {
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    auto* eng = ygm::progress::current();
    ASSERT_NE(eng, nullptr);
    c.barrier();
    if (c.rank() == 0) {
      // The loop must be alive: passes keep increasing.
      const auto before = eng->stats().passes;
      EXPECT_TRUE(wait_until(
          [&] { return eng->stats().passes > before; },
          std::chrono::seconds(5)));
    }
    c.barrier();
  });
}

TEST(ProgressEngine, StealsDeliveriesWhileRankComputes) {
  static constexpr int kMsgs = 64;
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    topology topo(1, 2);
    comm_world world(c, topo, scheme_kind::no_route);
    std::atomic<int> got{0};
    mailbox<ping> mb(world, [&](const ping&) { got.fetch_add(1); });
    c.barrier();
    if (c.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) mb.send(1, ping{std::uint64_t(i)});
      mb.flush();
    } else {
      // Compute region: never poll — only the engine can move these
      // messages, executing the callbacks directly (deliver::on_engine).
      ygm::progress::guard g(world, ygm::progress::deliver::on_engine);
      EXPECT_TRUE(wait_until([&] { return got.load() >= kMsgs; },
                             std::chrono::seconds(10)))
          << "engine stole " << got.load() << "/" << kMsgs
          << " deliveries while the rank computed";
    }
    mb.wait_empty();
    if (c.rank() == 1) {
      EXPECT_EQ(got.load(), kMsgs);
    }
  });
}

TEST(ProgressEngine, DeferredDeliveriesRunOnRankThreadAtDrain) {
  static constexpr int kMsgs = 32;
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    topology topo(1, 2);
    comm_world world(c, topo, scheme_kind::no_route);
    const auto rank_tid = std::this_thread::get_id();
    std::atomic<int> got{0};
    std::atomic<bool> off_thread{false};
    mailbox<ping> mb(world, [&](const ping&) {
      if (std::this_thread::get_id() != rank_tid) off_thread.store(true);
      got.fetch_add(1);
    });
    c.barrier();
    if (c.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) mb.send(1, ping{1});
      mb.flush();
    } else {
      // Default (deferred) guard: the engine may drain the transport but
      // the callbacks only run on this thread, at drain()/wait_empty().
      ygm::progress::guard g(world, ygm::progress::deliver::deferred);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ygm::progress::drain(world);
    }
    mb.wait_empty();
    if (c.rank() == 1) {
      EXPECT_EQ(got.load(), kMsgs);
      EXPECT_FALSE(off_thread.load())
          << "a deferred-mode callback ran off the rank thread";
    }
  });
}

TEST(ProgressEngine, EngineExecutedCallbackExceptionSurfacesOnRank) {
  ygm::run_options o;
  o.nranks = 2;
  o.progress_mode = ygm::progress::mode::engine;
  try {
    ygm::launch(o, [](sim::comm& c) {
      topology topo(1, 2);
      comm_world world(c, topo, scheme_kind::no_route);
      std::atomic<bool> thrown{false};
      mailbox<ping> mb(world, [&](const ping&) {
        thrown.store(true);
        throw std::runtime_error("engine callback boom");
      });
      c.barrier();
      if (c.rank() == 1) {
        mb.send(0, ping{7});
        mb.flush();
        mb.wait_empty();
      } else {
        {
          ygm::progress::guard g(world, ygm::progress::deliver::on_engine);
          wait_until([&] { return thrown.load(); }, std::chrono::seconds(10));
        }
        // The engine parked the exception; the rank's next progress call
        // rethrows it here (or, if the engine lost the race, the rank
        // executes the callback itself — same observable failure).
        mb.wait_empty();
      }
    });
    FAIL() << "the callback exception never surfaced";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << "unexpected failure: " << e.what();
  }
}

// A verdict the engine latched for a parked rank ends exactly that
// wait_empty(). Were the engine to keep polling the detector, the rank
// would start its next epoch a round ahead of its peers, and its next
// wait_empty() would wait for a round nobody else joins.
TEST(ProgressEngine, ConsecutiveWaitEmptyEpochsStayInStep) {
  ygm::launch(
      {.nranks = 4, .progress_mode = ygm::progress::mode::engine},
      [](sim::comm& c) {
        comm_world world(c, topology(2, 2), scheme_kind::node_remote);
        mailbox<int> mb(world, [](const int&) {});
        for (int epoch = 1; epoch <= 20; ++epoch) {
          mb.wait_empty();
          mb.wait_empty();  // already quiescent: returns at once
          for (int d = 0; d < c.size(); ++d) {
            if (d != c.rank()) mb.send(d, epoch);
          }
          mb.wait_empty();
          EXPECT_EQ(mb.stats().deliveries,
                    static_cast<std::uint64_t>(epoch * (c.size() - 1)));
        }
      });
}

TEST(ProgressEngine, TeardownWithTrafficInFlight) {
  // Destroy mailboxes with messages still undelivered while the engine is
  // live: remove_pump must wait out any steal in flight, never crash or
  // hang, and the world must stay usable for a fresh mailbox afterwards.
  ygm::run_options o;
  o.nranks = 4;
  o.progress_mode = ygm::progress::mode::engine;
  ygm::launch(o, [](sim::comm& c) {
    topology topo(2, 2);
    comm_world world(c, topo, scheme_kind::nlnr);
    {
      mailbox<ping> mb(world, [](const ping&) {});
      ygm::progress::guard g(world);
      for (int i = 0; i < 128; ++i) {
        mb.send((c.rank() + 1 + i) % c.size(), ping{std::uint64_t(i)});
      }
      mb.flush();
      // No wait_empty: the mailbox dies with traffic in flight.
    }
    c.barrier();
    // The world (and engine) survive: a fresh mailbox on a fresh tag block
    // still completes a verified round trip.
    std::atomic<int> got{0};
    mailbox<ping> mb2(world, [&](const ping&) { got.fetch_add(1); });
    mb2.send((c.rank() + 1) % c.size(), ping{1});
    mb2.wait_empty();
    EXPECT_EQ(got.load(), 1);
  });
}

/// Engine-mode journeys at sample rate 1.0 on `backend`: every sampled
/// message must stitch complete, with exactly the legs its route has, and
/// each process that hosts ranks adds one engine lane to the world.
void check_engine_journeys(ygm::transport::backend_kind backend) {
  namespace tel = ygm::telemetry;
  namespace causal = ygm::telemetry::causal;
  tel::session session;
  tel::set_global(&session);
  ygm::run_options o;
  o.nranks = 4;
  o.backend = backend;
  o.progress_mode = ygm::progress::mode::engine;
  o.trace_sample = 1.0;
  static constexpr int kMsgs = 20;
  const topology topo(2, 2);
  ygm::launch(o, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::atomic<int> recv{0};
    mailbox<std::uint32_t> mb(
        world, [&](const std::uint32_t&) { recv.fetch_add(1); }, 512);
    {
      // Compute window: the engine steals arrivals and defers them through
      // the ring, which is exactly the path that minted the phantom leg.
      ygm::progress::guard g(world);
      for (int i = 0; i < kMsgs; ++i) {
        for (int d = 0; d < c.size(); ++d) {
          if (d != c.rank()) mb.send(d, static_cast<std::uint32_t>(i));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    mb.wait_empty();
    EXPECT_EQ(recv.load(), kMsgs * (c.size() - 1));
  });
  tel::set_global(nullptr);

  const int engines = backend == ygm::transport::backend_kind::inproc ? 1 : 4;
  EXPECT_EQ(session.lane_count(session.world_count() - 1), 4 + engines);
  const auto journeys = causal::stitch(causal::extract_hops(session));
  EXPECT_EQ(journeys.size(), static_cast<std::size_t>(4 * 3 * kMsgs));
  const ygm::routing::router route(scheme_kind::nlnr, topo);
  const auto errors = causal::check_journeys(
      journeys, [&](int /*world*/, int origin, int dest) {
        if (origin < 0 || dest < 0) return -1;
        return static_cast<int>(route.path(origin, dest).size());
      });
  for (const auto& e : errors) ADD_FAILURE() << e;
  for (const auto& [key, j] : journeys) {
    EXPECT_TRUE(j.complete());
    EXPECT_LE(j.legs(), static_cast<std::size_t>(route.max_hops()));
  }
}

// Revert guard: defer_delivery used to record a network-leg hop event for
// the MPSC-ring push. Every engine-delivered sampled journey then reported
// one more leg than the route has hops and `ygm_trace --selfcheck` failed.
// The ring handoff is rank-internal — legs must match the wire path
// exactly, engine or not.
TEST(ProgressEngine, DeferredHandoffAddsNoCausalLeg) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "causal hop events compiled out with -DYGM_TELEMETRY=OFF";
#endif
  check_engine_journeys(ygm::transport::backend_kind::inproc);
}

// Revert guard: a forked rank's engine used to run without a telemetry
// lane, so its forward and enqueue hops were dropped and the deliveries it
// deferred were stamped at 0 us, before their journey began.
TEST(ProgressEngine, ForkedEngineLaneKeepsJourneysWhole) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "causal hop events compiled out with -DYGM_TELEMETRY=OFF";
#endif
  for (const auto backend : {ygm::transport::backend_kind::socket,
                             ygm::transport::backend_kind::shm}) {
    SCOPED_TRACE(std::string(ygm::transport::to_string(backend)));
    check_engine_journeys(backend);
  }
}

// ------------------------------------------- exchange-claim regression
//
// Revert guard for the reentrancy bugfix: in_exchange_ used to be a plain
// bool set/cleared around the drain loop. Two bugs followed: (a) a receive
// callback that threw left the flag stuck true, permanently wedging
// poll_incoming into a no-op (this test then hangs in wait_empty until the
// stall watchdog kills it); (b) with an engine attached, rank and engine
// could both read false and drain concurrently. exchange_claim (atomic
// exchange + RAII release) fixes both; poll()'s lock-free early-out is why
// the flag must stay a std::atomic.
TEST(ExchangeClaim, ThrowingCallbackDoesNotWedgeTheMailbox) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    topology topo(1, 2);
    comm_world world(c, topo, scheme_kind::no_route);
    std::atomic<int> got{0};
    const bool receiver = c.rank() == 1;
    mailbox<ping> mb(world, [&](const ping& p) {
      got.fetch_add(1);
      if (p.value == 0xdead) throw std::runtime_error("poison");
    });
    if (c.rank() == 0) {
      mb.send(1, ping{0xdead});
      mb.flush();  // first packet: the poison alone
      mb.send(1, ping{1});
      mb.flush();  // second packet: must still be deliverable after the throw
    }
    if (receiver) {
      bool threw = false;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!threw && std::chrono::steady_clock::now() < deadline) {
        try {
          mb.poll();
        } catch (const std::runtime_error&) {
          threw = true;
        }
        std::this_thread::yield();
      }
      EXPECT_TRUE(threw) << "poison message never delivered";
    }
    // With the claim released by RAII, progress resumes: the second
    // message arrives and global quiescence is reached. (With the reverted
    // plain-bool flag, rank 1 never drains again and this hangs.)
    mb.wait_empty();
    if (receiver) {
      EXPECT_EQ(got.load(), 2);
    }
  });
}

// ----------------------------------------------------- ledger chaos sweep
//
// The acceptance sweep: seeded chaos traffic, every delivery invariant
// (exactly-once, no phantoms, conservation, sealed silence, counter
// cross-checks) verified by the ledger, across backend x progress mode.
// Engine trials wrap injection in a progress::guard so the engine
// genuinely competes with the rank for the same packets.

struct progress_cell {
  ygm::transport::backend_kind backend = ygm::transport::backend_kind::inproc;
  bool engine = false;
  /// Socket trials fork whole processes per rank; a smaller seed block
  /// keeps the shard's wall time proportionate without losing the matrix.
  std::uint32_t seeds = 16;
};

// Cell names keep their "mailbox_" prefix so the test IDs stay stable.
std::string progress_cell_name(
    const ::testing::TestParamInfo<progress_cell>& info) {
  const auto& p = info.param;
  return "mailbox_" + std::string(ygm::transport::to_string(p.backend)) +
         "_" + (p.engine ? "engine" : "polling");
}

std::vector<progress_cell> progress_cells() {
  std::vector<progress_cell> cells;
  for (auto backend : {ygm::transport::backend_kind::inproc,
                       ygm::transport::backend_kind::socket}) {
    const std::uint32_t seeds =
        backend == ygm::transport::backend_kind::socket ? 4 : 16;
    for (bool engine : {false, true}) {
      cells.push_back({backend, engine, seeds});
    }
  }
  return cells;
}

trial_config make_progress_trial(std::uint64_t seed, bool engine) {
  static constexpr std::pair<int, int> kTopos[] = {
      {2, 2}, {1, 4}, {3, 2}, {2, 3}};
  static constexpr std::size_t kCapacities[] = {1, 24, 96, 65536};
  trial_config t;
  t.seed = seed;
  t.scheme = ygm::routing::all_schemes[seed %
                                       std::size(ygm::routing::all_schemes)];
  const auto [n, c] = kTopos[seed % 4];
  t.nodes = n;
  t.cores = c;
  t.capacity = kCapacities[(seed / 2) % 4];
  t.timed = false;  // engine mode requires untimed worlds
  t.serialize_self_sends = (seed % 4) == 2;
  t.msgs_per_rank = 24;
  t.bcasts_per_rank = 2;
  t.epochs = 2;
  t.use_progress_guard = engine;
  t.chaos = (seed % 2) == 0 ? sim::chaos_config::light(seed)
                            : sim::chaos_config::heavy(seed);
  return t;
}

class ProgressChaosSweep : public ::testing::TestWithParam<progress_cell> {};

TEST_P(ProgressChaosSweep, LedgerVerifiedExactlyOnce) {
  const auto cell = GetParam();
  for (std::uint64_t seed = 0; seed < cell.seeds; ++seed) {
    const trial_config t = make_progress_trial(seed, cell.engine);
    ygm::run_options o;
    o.nranks = t.num_ranks();
    o.backend = cell.backend;
    o.chaos = t.chaos;
    o.progress_mode = cell.engine ? ygm::progress::mode::engine
                                  : ygm::progress::mode::polling;
    std::vector<std::string> all;
    const auto blobs = ygm::launch_collect(o, [&](sim::comm& c) {
      const auto local = run_chaos_trial(c, t);
      std::vector<std::byte> out;
      ygm::ser::append_bytes(local, out);
      return out;
    });
    for (const auto& blob : blobs) {
      const auto local = ygm::ser::from_bytes<std::vector<std::string>>(
          {blob.data(), blob.size()});
      all.insert(all.end(), local.begin(), local.end());
    }
    if (!all.empty()) {
      std::string joined;
      for (const auto& v : all) joined += "\n  " + v;
      FAIL() << "invariant violations for trial {" << t.describe()
             << "} backend=" << ygm::transport::to_string(cell.backend)
             << " engine=" << int(cell.engine) << joined;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ProgressChaosSweep,
                         ::testing::ValuesIn(progress_cells()),
                         progress_cell_name);

}  // namespace
