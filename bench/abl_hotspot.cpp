// Ablation: communication hot-spot — the paper's second §III failure mode
// for synchronous collectives: "if one process is the recipient of a large
// proportion of the total communication in an exchange that reoccurs
// frequently, then it will fall behind other processes which must then
// wait on it."
//
// Workload: K production rounds. Every rank pays a production cost P per
// round and sends most of its messages to rank 0, whose receive callback
// pays a drain cost (so rank 0's per-round drain D exceeds P). Rank 0's
// drain is on the critical path either way, so the MAX wall time is the
// same for both implementations — the §III claim is about everyone else:
// under synchronous exchanges the other 15 ranks idle inside every
// ALLTOALLV while rank 0 drains (completing their own work at ~K*(P+D)),
// where the mailbox lets them finish at ~K*P and only then park in
// termination ("poor resource utilization ... many processes are left
// idle"). The bench therefore reports the mean per-rank completion time
// (when a rank finished producing and serving its own share) next to the
// wall time.
//
// (Costs are modelled with sleeps: the 16 rank-threads share a 4-core
// host, so a busy-wait would steal cycles from the other rank-threads,
// which is precisely the coupling the experiment must NOT introduce. With
// sleeps the timing assumes no free core at all.)
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/ygm.hpp"

namespace {

using namespace ygm;

struct workload {
  int rounds = 6;
  int msgs_per_round = 800;
  double hot_fraction = 0.8;      // share of traffic aimed at rank 0
  double produce_s = 0.004;       // per-round production cost, every rank
  double drain_per_msg_s = 2e-6;  // rank 0's per-message handling cost
};

int pick_dest(xoshiro256& rng, int size, double hot_fraction) {
  if (rng.uniform() < hot_fraction) return 0;
  return static_cast<int>(rng.below(static_cast<std::uint64_t>(size)));
}

// Rank 0's drain cost, batched so the sleep granularity stays sane.
struct hot_drain {
  double per_msg_s;
  int pending = 0;
  void operator()(int batch = 200) {
    if (++pending >= batch) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(per_msg_s * pending));
      pending = 0;
    }
  }
};

struct result {
  double wall = 0;       // global completion (max over ranks)
  double mean_done = 0;  // mean time at which ranks finished their own work
};

result run_sync(const routing::topology& topo, const workload& w) {
  result out;
  ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
    xoshiro256 rng(23 + static_cast<std::uint64_t>(c.rank()));
    hot_drain drain{w.drain_per_msg_s};
    std::uint64_t sink = 0;
    c.barrier();
    const double t0 = c.wtime();
    for (int round = 0; round < w.rounds; ++round) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(w.produce_s));
      std::vector<std::vector<std::uint64_t>> out(
          static_cast<std::size_t>(c.size()));
      for (int i = 0; i < w.msgs_per_round; ++i) {
        out[static_cast<std::size_t>(
               pick_dest(rng, c.size(), w.hot_fraction))]
            .push_back(rng());
      }
      // The superstep boundary: every rank idles until rank 0 drains.
      const auto in = c.alltoallv(out);
      for (const auto& v : in) {
        for (const auto x : v) {
          sink += x;
          if (c.rank() == 0) drain();
        }
      }
    }
    const double done = c.wtime() - t0;  // my own work is finished here
    const double dt = c.allreduce(done, mpisim::op_max{});
    const double mean =
        c.allreduce(done, mpisim::op_sum{}) / c.size();
    if (c.rank() == 0) {
      out.wall = dt;
      out.mean_done = mean;
    }
    (void)sink;
  });
  return out;
}

result run_async(const routing::topology& topo, routing::scheme_kind kind,
                 const workload& w) {
  result out;
  ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
    core::comm_world world(c, topo, kind);
    hot_drain drain{w.drain_per_msg_s};
    std::uint64_t sink = 0;
    core::mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          sink += v;
          if (c.rank() == 0) drain();
        },
        4096);
    xoshiro256 rng(23 + static_cast<std::uint64_t>(c.rank()));
    c.barrier();
    const double t0 = c.wtime();
    for (int round = 0; round < w.rounds; ++round) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(w.produce_s));
      for (int i = 0; i < w.msgs_per_round; ++i) {
        mb.send(pick_dest(rng, c.size(), w.hot_fraction), rng());
      }
      mb.poll();  // producers keep forwarding; rank 0 drains what arrived
    }
    const double done = c.wtime() - t0;  // own production finished
    mb.wait_empty();
    const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    const double mean =
        c.allreduce(done, mpisim::op_sum{}) / c.size();
    if (c.rank() == 0) {
      out.wall = dt;
      out.mean_done = mean;
    }
    (void)sink;
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  workload w;
  w.rounds = static_cast<int>(bench::flag_int(argc, argv, "rounds", 6));

  std::printf("Ablation: communication hot-spot (paper §III: a heavily "
              "addressed process stalls synchronous exchanges)\n");
  const routing::topology topo(4, 4);

  // Reference costs for the expectation printed below.
  const double hot_msgs_per_round =
      w.hot_fraction * w.msgs_per_round * topo.num_ranks();
  const double drain_per_round = hot_msgs_per_round * w.drain_per_msg_s;

  bench::banner(
      "[executed] 4x4 ranks, " + std::to_string(w.rounds) +
          " rounds, varying share of traffic aimed at rank 0",
      "Every rank produces for " + bench::fmt(w.produce_s) +
          " s per round; at hot=0.8 rank 0 drains ~" +
          bench::fmt(drain_per_round) +
          " s per round. Wall time is pinned to rank 0's drain in both "
          "models; the utilization win shows in the mean completion.");
  bench::table t({"hot fraction", "sync wall (s)", "sync mean done (s)",
                  "async wall (s)", "async mean done (s)",
                  "idle time reclaimed"});
  for (const double hot : {0.0, 0.4, 0.8}) {
    workload ws = w;
    ws.hot_fraction = hot;
    const auto sync_r = run_sync(topo, ws);
    const auto async_r =
        run_async(topo, routing::scheme_kind::node_remote, ws);
    t.add_row({bench::fmt(hot, 2), bench::fmt(sync_r.wall),
               bench::fmt(sync_r.mean_done), bench::fmt(async_r.wall),
               bench::fmt(async_r.mean_done),
               bench::fmt(sync_r.mean_done / async_r.mean_done, 2) + "x"});
  }
  t.print();
  return 0;
}
