// Message-rate baseline for the mailbox hot path (docs/PERF.md).
//
// Exercises the steady-state send -> flush -> drain -> forward cycle that
// the zero-copy work targets, and reports msgs/sec, wire MB/sec, and the
// packet-buffer-pool counters (pool hit rate, heap allocations per
// message). Three workloads:
//
//   p2p   small-message all-to-all under all four routing schemes — the
//         headline rows of BENCH_hotpath.json;
//   bcast broadcast fan-out along each scheme's tree;
//   fwd   forward-heavy NLNR point-to-point on a wider topology, where
//         most records are re-queued by intermediaries (the forward path).
//
// Run with --bench-json=<file> to capture the machine-readable report
// (one measurement per call; tools/bench_ab.py repeats calls and writes
// BENCH_hotpath.json); `--tiny` shrinks everything for the CI smoke.
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
#include "telemetry/telemetry.hpp"

namespace {

using namespace ygm;

struct knobs {
  int p2p_rounds = 20000;   ///< all-to-all rounds per rank
  int bcast_rounds = 4000;  ///< broadcasts per rank
  int fwd_rounds = 3000;    ///< forward-heavy all-to-all rounds per rank
  std::size_t capacity = std::size_t{1} << 14;  ///< small: many packet cycles
};

struct run_result {
  std::uint64_t delivered = 0;
  std::uint64_t hops = 0;      ///< hops_sent summed over ranks
  std::uint64_t bytes = 0;     ///< packet bytes (local + remote)
  double wall = 0;             ///< max over ranks, seconds
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t alloc_bytes = 0;
};

std::uint64_t counter_or(const telemetry::metrics_registry& m,
                         std::string_view name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second;
}

const char* scheme_name(routing::scheme_kind k) {
  switch (k) {
    case routing::scheme_kind::no_route: return "NoRoute";
    case routing::scheme_kind::node_local: return "NodeLocal";
    case routing::scheme_kind::node_remote: return "NodeRemote";
    case routing::scheme_kind::nlnr: return "NLNR";
  }
  return "?";
}

/// Run `body(world)` on a fresh mpisim world and collect the telemetry
/// counters that world recorded (pool + mailbox families).
template <class Body>
run_result run_world(int nranks, const Body& body) {
  run_result res;
  auto& ses = *telemetry::global();
  const int w0 = ses.world_count();
  double wall = 0;
  ygm::launch({.nranks = nranks}, [&](mpisim::comm& c) {
    const double dt = body(c);
    if (c.rank() == 0) wall = dt;
  });
  res.wall = wall;
  telemetry::metrics_registry m;
  for (int w = w0; w < ses.world_count(); ++w) {
    m.merge(ses.merged_metrics(w));
  }
  res.delivered = counter_or(m, "mailbox.deliveries");
  res.hops = counter_or(m, "mailbox.hops_sent");
  res.bytes =
      counter_or(m, "mailbox.local_bytes") + counter_or(m, "mailbox.remote_bytes");
  // Counters are absent when telemetry is compiled out — read them
  // defensively.
  res.pool_hits = counter_or(m, "pool.hits");
  res.pool_misses = counter_or(m, "pool.misses");
  res.alloc_bytes = counter_or(m, "alloc.bytes");
  return res;
}

// ------------------------------------------------------------- workloads

/// Every rank sends `rounds` small messages to every other rank.
run_result all_to_all(const routing::topology& topo, routing::scheme_kind k,
                      int rounds, std::size_t capacity) {
  return run_world(topo.num_ranks(), [&](mpisim::comm& c) {
    core::comm_world world(c, topo, k);
    std::uint64_t sink = 0;
    core::mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, capacity);
    c.barrier();
    const double t0 = c.wtime();
    for (int i = 0; i < rounds; ++i) {
      for (int d = 0; d < c.size(); ++d) {
        if (d == c.rank()) continue;
        mb.send(d, static_cast<std::uint64_t>(i));
      }
    }
    mb.wait_empty();
    return c.allreduce(c.wtime() - t0, mpisim::op_max{});
  });
}

/// Every rank broadcasts `rounds` small messages.
run_result bcast_storm(const routing::topology& topo, routing::scheme_kind k,
                       int rounds, std::size_t capacity) {
  return run_world(topo.num_ranks(), [&](mpisim::comm& c) {
    core::comm_world world(c, topo, k);
    std::uint64_t sink = 0;
    core::mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, capacity);
    c.barrier();
    const double t0 = c.wtime();
    for (int i = 0; i < rounds; ++i) {
      mb.send_bcast(static_cast<std::uint64_t>(i));
    }
    mb.wait_empty();
    return c.allreduce(c.wtime() - t0, mpisim::op_max{});
  });
}

// ------------------------------------------------------------- reporting

void report(bench::table& t, const std::string& section,
            const std::string& scheme, const run_result& r) {
  const double msgs_per_sec =
      r.wall > 0 ? static_cast<double>(r.delivered) / r.wall : 0;
  const double mb_per_sec =
      r.wall > 0 ? static_cast<double>(r.bytes) / r.wall / 1e6 : 0;
  const std::uint64_t acquires = r.pool_hits + r.pool_misses;
  const double hit_pct =
      acquires > 0
          ? 100.0 * static_cast<double>(r.pool_hits) /
                static_cast<double>(acquires)
          : 0;
  const double allocs_per_msg =
      r.delivered > 0 ? static_cast<double>(r.pool_misses) /
                            static_cast<double>(r.delivered)
                      : 0;
  t.add_row({scheme, std::to_string(r.delivered), bench::fmt(r.wall),
             bench::fmt(msgs_per_sec), bench::fmt(mb_per_sec),
             bench::fmt(hit_pct), bench::fmt(allocs_per_msg, 4)});
  // Metric names keep their ".mailbox" segment, so they line up with the
  // committed BENCH_hotpath.json.
  const std::string key = section + "." + scheme + ".mailbox";
  auto& rep = bench::json_report::instance();
  rep.add_metric(key + ".msgs_per_sec", msgs_per_sec);
  rep.add_metric(key + ".mb_per_sec", mb_per_sec);
  rep.add_metric(key + ".allocs_per_msg", allocs_per_msg);
  rep.add_metric(key + ".pool_hit_pct", hit_pct);
}

std::vector<std::string> columns() {
  return {"scheme", "delivered", "wall (s)",  "msgs/s",
          "MB/s",   "pool hit%", "allocs/msg"};
}

constexpr routing::scheme_kind all_schemes[] = {
    routing::scheme_kind::no_route, routing::scheme_kind::node_local,
    routing::scheme_kind::node_remote, routing::scheme_kind::nlnr};

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry_flags(argc, argv);
  // The pool/mailbox counters this bench reports require a telemetry
  // session; install one ourselves when no --trace-*/--metrics-* flag did.
  std::unique_ptr<telemetry::session> own_session;
  if (telemetry::global() == nullptr) {
    own_session = std::make_unique<telemetry::session>();
    telemetry::set_global(own_session.get());
  }

  knobs kn;
  if (bench::has_flag(argc, argv, "tiny")) {
    kn.p2p_rounds = 40;
    kn.bcast_rounds = 20;
    kn.fwd_rounds = 30;
    kn.capacity = 4096;
  }
  kn.p2p_rounds = static_cast<int>(
      bench::flag_int(argc, argv, "msgs", kn.p2p_rounds));
  kn.bcast_rounds = static_cast<int>(
      bench::flag_int(argc, argv, "bcasts", kn.bcast_rounds));
  kn.fwd_rounds = static_cast<int>(
      bench::flag_int(argc, argv, "fwd", kn.fwd_rounds));
  kn.capacity = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "capacity",
                      static_cast<std::int64_t>(kn.capacity)));

  std::printf("Mailbox hot-path baseline: small-message rates through the "
              "full send->flush->drain->forward cycle\n");

  const routing::topology topo(4, 2);   // 4 nodes x 2 cores = 8 ranks
  const routing::topology wide(8, 2);   // forward-heavy NLNR shape

  bench::banner("p2p all-to-all, small messages",
                "8-byte payloads, 8 ranks (4 nodes x 2 cores), capacity " +
                    std::to_string(kn.capacity) + " B. The BENCH_hotpath "
                    "headline rows.");
  {
    bench::table t(columns());
    for (const auto k : all_schemes) {
      report(t, "p2p", scheme_name(k),
             all_to_all(topo, k, kn.p2p_rounds, kn.capacity));
    }
    t.print();
  }

  bench::banner("p2p all-to-all, flush churn",
                "Same workload at 256 B capacity: a flush every few records, "
                "so the packet buffer cycle (grow/ship/drop vs pool) "
                "dominates.");
  {
    bench::table t(columns());
    for (const auto k : {routing::scheme_kind::no_route,
                         routing::scheme_kind::nlnr}) {
      report(t, "churn", scheme_name(k),
             all_to_all(topo, k, kn.p2p_rounds, 256));
    }
    t.print();
  }

  bench::banner("broadcast storm",
                "Every rank broadcasts along the scheme's tree; delivered = "
                "ranks x (ranks-1) x rounds.");
  {
    bench::table t(columns());
    for (const auto k : all_schemes) {
      report(t, "bcast", scheme_name(k),
             bcast_storm(topo, k, kn.bcast_rounds, kn.capacity));
    }
    t.print();
  }

  bench::banner("forward-heavy NLNR all-to-all",
                "16 ranks (8 nodes x 2 cores): most records cross an "
                "intermediary, exercising the span-based forward path.");
  {
    bench::table t(columns());
    report(t, "fwd", "NLNR",
           all_to_all(wide, routing::scheme_kind::nlnr, kn.fwd_rounds,
                      kn.capacity));
    t.print();
  }

  return 0;
}
