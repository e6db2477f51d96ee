// Live-telemetry tests (docs/TELEMETRY.md §Live telemetry): time-series
// sampler window math, the stale-gauge drop on world teardown, online
// latency sketches cross-checked against offline journey stitching, the
// statusz endpoint parse-back on both backends, and a chaos sweep with the
// sampler thread reading lanes while the rank threads write them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "core/invariants.hpp"
#include "core/launch.hpp"
#include "core/ygm.hpp"
#include "ser/serialize.hpp"
#include "transport/endpoint.hpp"
#include "telemetry/journey.hpp"
#include "telemetry/live.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/statusz.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tel = ygm::telemetry;
namespace live = ygm::telemetry::live;
namespace causal = ygm::telemetry::causal;
using ygm::common::json_parser;
using ygm::common::json_value;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

struct probe_payload {
  std::uint64_t v = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & v;
  }
};

/// Every test leaves the process-global knobs (causal sampling, live
/// overrides, global session) the way it found them.
struct live_config_guard {
  ~live_config_guard() {
    causal::set_sample_rate(0);
    live::set_sample_ms_override(-1);
    live::set_statusz_override(-1);
    tel::set_global(nullptr);
  }
};

// --------------------------------------------------- sampler window math

TEST(LiveSampler, CounterRatesAndGaugeWindows) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP()
      << "counter and gauge hooks compiled out with -DYGM_TELEMETRY=OFF";
#endif
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);

  live::sampler s({/*period_ms=*/1, /*capacity=*/16, /*own_thread=*/false});
  const int w = session.begin_world(1);
  {
    tel::rank_scope scope(session, w, /*rank=*/0);
    s.tick_now();  // primes the counter baselines

    tel::add(tel::fast_counter::deliveries, 100);
    tel::live::gauge_set(live::gauge::queued_bytes, 10);
    tel::live::gauge_set(live::gauge::queued_bytes, 2);
    tel::live::gauge_set(live::gauge::queued_bytes, 30);
    s.tick_now();

    const auto snap = s.snapshot();
    const auto find = [&](const std::string& metric)
        -> const live::sampler::series_snapshot* {
      for (const auto& ss : snap) {
        if (ss.world == w && ss.rank == 0 && ss.metric == metric) return &ss;
      }
      return nullptr;
    };

    // Counter -> windowed rate: 100 deliveries across one (tiny) window.
    const auto* rate = find("rate.mailbox.deliveries");
    ASSERT_NE(rate, nullptr);
    ASSERT_EQ(rate->points.size(), 1u);
    EXPECT_GT(rate->points[0].value, 0.0);

    // Gauge -> last value plus window min/mean/max of {10, 2, 30}.
    const auto* last = find("live.queued_bytes");
    ASSERT_NE(last, nullptr);
    EXPECT_DOUBLE_EQ(last->points.back().value, 30.0);
    const auto* mn = find("live.queued_bytes.min");
    ASSERT_NE(mn, nullptr);
    EXPECT_DOUBLE_EQ(mn->points.back().value, 2.0);
    const auto* mx = find("live.queued_bytes.max");
    ASSERT_NE(mx, nullptr);
    EXPECT_DOUBLE_EQ(mx->points.back().value, 30.0);
    const auto* mean = find("live.queued_bytes.mean");
    ASSERT_NE(mean, nullptr);
    EXPECT_DOUBLE_EQ(mean->points.back().value, 14.0);

    // Timestamps are monotone within a series across ticks.
    tel::add(tel::fast_counter::deliveries, 7);
    s.tick_now();
    const auto again = s.snapshot();
    for (const auto& ss : again) {
      double prev = -1;
      for (const auto& p : ss.points) {
        EXPECT_GE(p.ts_us, prev) << ss.metric;
        prev = p.ts_us;
      }
    }
  }
}

TEST(LiveSampler, UntouchedGaugeHasNoSeries) {
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);

  live::sampler s({1, 16, /*own_thread=*/false});
  const int w = session.begin_world(1);
  tel::rank_scope scope(session, w, 0);
  s.tick_now();
  for (const auto& ss : s.snapshot()) {
    EXPECT_TRUE(ss.metric.rfind("live.", 0) != 0)
        << "gauge series " << ss.metric << " exists without a writer";
  }
}

// -------------------------------------------- stale-gauge drop regression

TEST(LiveSampler, TornDownWorldSeriesAreDroppedNotCoasted) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "rank lanes compiled out with -DYGM_TELEMETRY=OFF";
#endif
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);

  live::sampler s({1, 16, /*own_thread=*/false});
  const int w = session.begin_world(2);
  {
    tel::rank_scope scope(session, w, /*rank=*/1);
    tel::live::gauge_set(live::gauge::credit_used, 4096);
    tel::add(tel::fast_counter::deliveries, 5);
    s.tick_now();
    tel::add(tel::fast_counter::deliveries, 5);
    s.tick_now();

    bool saw_lane = false;
    for (const auto& ss : s.snapshot()) {
      saw_lane = saw_lane || (ss.world == w && ss.rank == 1);
    }
    ASSERT_TRUE(saw_lane);
  }

  // The world tore down (rank_scope unbound). The regression this guards:
  // the sampler used to keep emitting the last gauge values forever; now
  // the next tick must drop the dead lane's series entirely.
  s.tick_now();
  for (const auto& ss : s.snapshot()) {
    EXPECT_FALSE(ss.world == w && ss.rank == 1)
        << "stale series " << ss.metric << " survived world teardown";
  }
}

// ------------------------------------- online sketches vs offline journeys

TEST(LiveSketch, PercentilesAgreeWithOfflineTraceWithinOneBucket) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "causal hop events compiled out with -DYGM_TELEMETRY=OFF";
#endif
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);
  causal::set_sample_rate(1.0);

  constexpr int kRanks = 4;
  constexpr int kMsgs = 50;
  ygm::launch({.nranks = kRanks}, [&](sim::comm& c) {
    comm_world world(c, topology(2, 2), scheme_kind::node_remote);
    std::uint64_t received = 0;
    mailbox<probe_payload> mb(
        world, [&](const probe_payload&) { ++received; }, 64);
    for (int i = 0; i < kMsgs; ++i) {
      // No self-sends: every traced journey ends at a remote deliver site,
      // which is exactly where the live e2e sketch is fed.
      mb.send((c.rank() + 1 + i % (kRanks - 1)) % kRanks,
              probe_payload{static_cast<std::uint64_t>(i)});
    }
    mb.wait_empty();
  });
  tel::set_global(nullptr);
  causal::set_sample_rate(0);

  // Offline: stitch the full trace and measure first-enqueue -> deliver.
  const causal::journey_map journeys =
      causal::stitch(causal::extract_hops(session));
  tel::histogram offline;
  for (const auto& [key, j] : journeys) {
    if (!j.complete()) continue;
    double first_us = 0, deliver_us = 0;
    bool have_first = false;
    for (const auto& h : j.hops) {
      if (h.kind == causal::hop_kind::enqueue &&
          (!have_first || h.ts_us < first_us)) {
        first_us = h.ts_us;
        have_first = true;
      }
      if (h.kind == causal::hop_kind::deliver) deliver_us = h.ts_us;
    }
    ASSERT_TRUE(have_first);
    offline.record(std::max(deliver_us - first_us, 0.0));
  }
  ASSERT_GT(offline.count(), 0u);

  // Online: the sketches folded into "live.e2e_us.<scheme>" at export.
  const tel::metrics_registry merged = session.merged_metrics();
  tel::histogram online;
  for (const auto& [name, h] : merged.histos()) {
    if (name.rfind("live.e2e_us.", 0) == 0) online.merge(h);
  }
  ASSERT_GT(online.count(), 0u);
  // NodeRemote traffic must land under the NodeRemote sketch name.
  EXPECT_GT(merged.histos().at("live.e2e_us.NodeRemote").count(), 0u);

  // Every traced remote delivery fed the sketch exactly once.
  EXPECT_EQ(online.count(), offline.count());

  // Percentile agreement within one log2 bucket — same bucket mapping by
  // construction (sketch::record uses histogram::bucket_index), so only
  // clock placement (event timestamp vs post-deliver now_us) can differ.
  for (const double p : {0.50, 0.99, 0.999}) {
    const int ob = tel::histogram::bucket_index(offline.percentile(p));
    const int lb = tel::histogram::bucket_index(online.percentile(p));
    EXPECT_LE(std::abs(ob - lb), 1)
        << "p" << p << ": offline " << offline.percentile(p) << "us online "
        << online.percentile(p) << "us";
  }
}

// ------------------------------------------------- statusz parse-back

TEST(Statusz, RenderParsesBackInProcess) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "counters and latency sketches compiled out with "
                  "-DYGM_TELEMETRY=OFF";
#endif
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);
  const int w = session.begin_world(3);
  tel::rank_scope scope(session, w, /*rank=*/2);
  tel::add(tel::fast_counter::deliveries, 11);
  tel::live::gauge_set(live::gauge::outq_bytes, 512);
  tel::live::note_latency(3 /*NLNR*/, live::latency_kind::e2e, 1500.0);

  const json_value m = json_parser(live::statusz_render("metrics")).parse();
  ASSERT_TRUE(m.is_object());
  const auto& lanes = m.obj().at("lanes").arr();
  ASSERT_FALSE(lanes.empty());
  bool found = false;
  for (const auto& lv : lanes) {
    const auto& lo = lv.obj();
    if (static_cast<int>(lo.at("rank").num()) != 2) continue;
    found = true;
    EXPECT_DOUBLE_EQ(lo.at("counters").obj().at("mailbox.deliveries").num(),
                     11.0);
    EXPECT_DOUBLE_EQ(lo.at("gauges").obj().at("outq_bytes").num(), 512.0);
  }
  EXPECT_TRUE(found);

  const json_value l = json_parser(live::statusz_render("latency")).parse();
  bool nlnr_e2e = false;
  for (const auto& ev : l.obj().at("latency").arr()) {
    const auto& eo = ev.obj();
    if (eo.at("scheme").str() == "NLNR" && eo.at("kind").str() == "e2e") {
      nlnr_e2e = true;
      EXPECT_DOUBLE_EQ(eo.at("count").num(), 1.0);
      EXPECT_GT(eo.at("p50").num(), 0.0);
    }
  }
  EXPECT_TRUE(nlnr_e2e);

  const json_value h = json_parser(live::statusz_render("health")).parse();
  EXPECT_TRUE(std::get<bool>(h.obj().at("ok").v));
  EXPECT_GE(h.obj().at("lanes").num(), 1.0);

  // Unknown requests answer with a JSON error, never garbage.
  const json_value e = json_parser(live::statusz_render("bogus")).parse();
  EXPECT_TRUE(e.obj().count("error") == 1);
}

/// Query this process's own statusz endpoint over the real Unix socket.
/// Returns the parsed health "ok" flag, or false on any failure.
bool query_own_statusz_health() {
  const std::string path = live::statusz_dir() + "/ygm-statusz." +
                           std::to_string(getpid()) + ".sock";
  const std::string reply = live::statusz_query(path, "health");
  if (reply.empty()) return false;
  try {
    const json_value h = json_parser(reply).parse();
    return std::get<bool>(h.obj().at("ok").v);
  } catch (const std::exception&) {
    return false;
  }
}

TEST(Statusz, EndpointServesOverSocketOnBothBackends) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "rank lanes compiled out with -DYGM_TELEMETRY=OFF";
#endif
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);

  for (const auto backend : {ygm::transport::backend_kind::inproc,
                             ygm::transport::backend_kind::socket}) {
    ygm::run_options opts;
    opts.nranks = 2;
    opts.backend = backend;
    opts.statusz = 1;    // the knob under test
    opts.sample_ms = 10; // health reports the sampler alongside
    const auto blobs = ygm::launch_collect(opts, [&](sim::comm& c) {
      comm_world world(c, topology(1, 2), scheme_kind::no_route);
      std::uint64_t received = 0;
      mailbox<probe_payload> mb(
          world, [&](const probe_payload&) { ++received; }, 64);
      mb.send((c.rank() + 1) % 2, probe_payload{1});
      mb.wait_empty();
      // Each OS process hosts one endpoint; on inproc both ranks share the
      // test binary's pid, on socket each forked child queries its own.
      std::vector<std::byte> out;
      out.push_back(std::byte{query_own_statusz_health() ? std::uint8_t{1}
                                                         : std::uint8_t{0}});
      return out;
    });
    for (const auto& b : blobs) {
      ASSERT_EQ(b.size(), 1u);
      EXPECT_EQ(std::to_integer<int>(b[0]), 1)
          << "backend " << ygm::transport::to_string(backend);
    }
  }
}

// ---------------------------------------- chaos sweep with the sampler on

/// 16-seed chaos shard with the live sampler ticking at 2 ms and causal
/// tracing feeding the sketches: the sampler/statusz reader path runs
/// concurrently with chaotic rank threads, and every delivery invariant
/// must still hold. (The inverse — sampler correctness under chaos — is
/// covered by construction: readers never take locks the writers hold.)
TEST(LiveChaos, InvariantsHoldWithSamplerAndSketchesOn) {
  live_config_guard guard;
  tel::session session;
  tel::set_global(&session);
  causal::set_sample_rate(1.0);

  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    trial_config t;
    t.seed = seed;
    t.scheme =
        ygm::routing::all_schemes[seed % std::size(ygm::routing::all_schemes)];
    t.nodes = (seed % 2) == 0 ? 2 : 1;
    t.cores = (seed % 2) == 0 ? 2 : 4;
    t.capacity = (seed % 3) == 0 ? 24 : 96;
    t.timed = false;
    t.msgs_per_rank = 20;
    t.bcasts_per_rank = 2;
    t.epochs = 1;
    t.chaos = (seed % 2) == 0 ? sim::chaos_config::light(seed)
                              : sim::chaos_config::heavy(seed);

    ygm::run_options opts;
    opts.nranks = t.num_ranks();
    opts.chaos = t.chaos;
    opts.sample_ms = 2;  // aggressive: many ticks per trial
    std::vector<std::string> violations;
    const auto blobs = ygm::launch_collect(opts, [&](sim::comm& c) {
      const auto local = run_chaos_trial(c, t);
      std::vector<std::byte> out;
      ygm::ser::append_bytes(local, out);
      return out;
    });
    for (const auto& b : blobs) {
      const auto local =
          ygm::ser::from_bytes<std::vector<std::string>>({b.data(), b.size()});
      violations.insert(violations.end(), local.begin(), local.end());
    }
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.size()
        << " violation(s), first: "
        << (violations.empty() ? "" : violations.front());
  }
}

// ------------------------------------------------------- knob precedence

TEST(LiveKnobs, RunOptionsOverrideWinsAndRestores) {
  live_config_guard guard;
  live::set_sample_ms_override(-1);
  live::set_statusz_override(-1);
  const int env_default = live::resolved_sample_ms();

  {
    ygm::run_options opts;
    opts.nranks = 1;
    opts.sample_ms = 0;  // explicitly off for this run
    opts.statusz = 0;
    ygm::launch(opts, [&](sim::comm&) {
      EXPECT_EQ(live::resolved_sample_ms(), 0);
      EXPECT_FALSE(live::resolved_statusz());
    });
  }
  // scoped_run_defaults must restore the pre-run resolution.
  EXPECT_EQ(live::resolved_sample_ms(), env_default);
}

}  // namespace
