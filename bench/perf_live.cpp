// Live-telemetry overhead A/B (docs/TELEMETRY.md §Live telemetry).
//
// The live layer promises to be always-on-able: the time-series sampler
// snapshots every rank's counters/gauges on a period, and the hot path pays
// one relaxed atomic store per gauge publish plus the existing tls()-gated
// counter bumps. This bench runs the same all-to-all mailbox workload with
// the sampler off (sample_ms=0, the baseline), at the default period
// (100 ms), and at an aggressive 10 ms, all with telemetry lanes installed,
// and reports msgs/s for each:
//
//   live.sample_0.msgs_per_sec     baseline (lanes on, sampler off)
//   live.sample_100.msgs_per_sec   default period
//   live.sample_10.msgs_per_sec    10x default pressure
//   live.sample_<ms>.ticks         sampler ticks during that run
//   live.overhead_pct_100          (baseline/sample_100 - 1) * 100
//   live.overhead_pct_10           same vs the 10 ms run
//
// Each configuration is one launch that runs whole epochs until 1.2 s have
// passed, so the 100 ms sampler (whose first tick comes one period after
// it starts) ticks at least 10 times. One discarded warm-up launch comes
// first: the first launch pays allocator/page-cache warm-up that would
// otherwise masquerade as sampler overhead. One call measures each
// configuration once; tools/bench_ab.py repeats calls. `--tiny` runs one
// short epoch per configuration for the ctest shard; `--bench-json` writes
// the machine-readable report.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "routing/router.hpp"
#include "ser/serialize.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ygm;

struct knobs {
  int msgs = 100000;     ///< p2p messages per rank per epoch
  double seconds = 1.2;  ///< whole epochs until this much wall time
  std::size_t capacity = 8 * 1024;  ///< mailbox coalescing capacity
  int nodes = 2, cores = 2;
};

struct ping {
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & seq & payload;
  }
};

struct rank_out {
  std::uint64_t sent = 0;
  double secs = 0;
  std::uint64_t ticks = 0;  ///< the process's sampler ticks at the end
  template <class Ar>
  void serialize(Ar& ar) {
    ar & sent & secs & ticks;
  }
};

struct rate_out {
  double msgs_per_sec = 0;
  std::uint64_t ticks = 0;
};

/// One configuration: all ranks spray p2p messages round-robin, wait for
/// drain each epoch; rate = total sent / slowest rank's wall time.
rate_out run_rate(int sample_ms, const knobs& kn) {
  run_options o;
  o.nranks = kn.nodes * kn.cores;
  o.sample_ms = sample_ms;
  const auto blobs = launch_collect(o, [&](mpisim::comm& c) {
    core::comm_world world(c, routing::topology(kn.nodes, kn.cores),
                           routing::scheme_kind::node_local);
    std::uint64_t received = 0;
    core::mailbox<ping> mb(
        world, [&](const ping&) { ++received; }, kn.capacity);
    rank_out local;
    const int n = c.size();
    const auto t0 = std::chrono::steady_clock::now();
    do {
      ping m;
      for (int i = 0; i < kn.msgs; ++i) {
        m.seq = local.sent++;
        m.payload = static_cast<std::uint64_t>(i);
        mb.send((c.rank() + 1 + i % (n - 1)) % n, m);
      }
      mb.wait_empty();
      // Ranks agree on the slowest clock, so all run the same epochs.
      local.secs = c.allreduce(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count(),
                               mpisim::op_max{});
    } while (local.secs < kn.seconds);
    local.ticks = telemetry::live::sampler::info_installed().second;
    std::vector<std::byte> blob;
    ser::append_bytes(local, blob);
    return blob;
  });
  std::uint64_t total = 0;
  double slowest = 0;
  rate_out out;
  for (const auto& b : blobs) {
    const auto r = ser::from_bytes<rank_out>({b.data(), b.size()});
    total += r.sent;
    slowest = std::max(slowest, r.secs);
    out.ticks = std::max(out.ticks, r.ticks);
  }
  out.msgs_per_sec = slowest > 0 ? static_cast<double>(total) / slowest : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::telemetry_guard telemetry_flags(argc, argv);

  knobs kn;
  if (bench::has_flag(argc, argv, "tiny")) {
    kn.msgs = 4000;
    kn.seconds = 0;
  }
  kn.msgs = static_cast<int>(bench::flag_int(argc, argv, "msgs", kn.msgs));

  // The sampler samples telemetry lanes, so every configuration — including
  // the sample_ms=0 baseline — runs with a session installed. That isolates
  // the sampler's marginal cost from the (already measured, tls()-gated)
  // cost of the lanes themselves.
  std::unique_ptr<telemetry::session> tsession;
  if (telemetry::global() == nullptr) {
    tsession = std::make_unique<telemetry::session>();
    telemetry::set_global(tsession.get());
  }

  std::printf("Live sampler overhead: %d ranks, %d msgs/rank per epoch, "
              "whole epochs for >= %.1f s per configuration\n",
              kn.nodes * kn.cores, kn.msgs, kn.seconds);

  bench::banner(
      "live sampler: msgs/s vs sample period",
      "Same all-to-all workload, telemetry lanes installed in every run; "
      "only the time-series sampler period varies. sample_0 is the "
      "sampler-off baseline.");

  // Discarded warm-up round: first-launch allocator and page-cache costs
  // land here instead of in whichever configuration happens to run first.
  {
    knobs warm = kn;
    warm.msgs = std::max(kn.msgs / 4, 1);
    warm.seconds = 0;
    (void)run_rate(0, warm);
  }

  auto& rep = bench::json_report::instance();
  bench::table t({"sample_ms", "msgs/s", "ticks", "overhead %"});
  double baseline = 0;
  for (const int ms : {0, 100, 10}) {
    const auto r = run_rate(ms, kn);
    if (ms == 0) baseline = r.msgs_per_sec;
    const double overhead = ms == 0 || r.msgs_per_sec <= 0
                                ? 0
                                : (baseline / r.msgs_per_sec - 1.0) * 100.0;
    t.add_row({std::to_string(ms), bench::fmt_int(r.msgs_per_sec),
               std::to_string(r.ticks), ms == 0 ? "-" : bench::fmt(overhead)});
    const std::string key = "live.sample_" + std::to_string(ms);
    rep.add_metric(key + ".msgs_per_sec", r.msgs_per_sec);
    rep.add_metric(key + ".ticks", static_cast<double>(r.ticks));
    if (ms != 0) {
      rep.add_metric("live.overhead_pct_" + std::to_string(ms), overhead);
    }
  }
  t.print();

  if (tsession != nullptr) telemetry::set_global(nullptr);
  return 0;
}
