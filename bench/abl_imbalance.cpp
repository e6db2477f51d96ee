// Ablation: asynchronous mailbox vs bulk-synchronous ALLTOALLV under
// computational imbalance — the paper's core motivation (§I, §III): with
// synchronous collectives "applications ... move at the speed of their
// slowest processors", while mailbox ranks enter and leave the
// communication context independently.
//
// Workload: K production rounds. In round k, every rank computes (a busy
// delay) and produces M messages for random peers. The straggler ROTATES:
// in round k, rank k mod P takes `skew` times longer (data-dependent load,
// as in graph problems where the heavy vertex moves with the frontier).
//   synchronous:  compute; pack per-destination buffers; ALLTOALLV; apply —
//                 every superstep costs the MAX compute of that round, so
//                 the whole run costs ~ K * skew * base.
//   asynchronous: compute; mb.send() as produced; one wait_empty at the
//                 end — each rank's rounds just add up, so the critical
//                 path is max over ranks of TOTAL compute,
//                 ~ K * base * (1 + (skew-1)/P).
// The async advantage approaches the skew factor as P grows (paper §I:
// synchronous applications "move at the speed of their slowest
// processors").
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

// A real busy-wait would fight for the host's 4 cores across more
// rank-threads than cores; sleeping models "this rank is busy not
// communicating" without perturbing the other ranks — which is exactly the
// phenomenon under study — and needs no free core.
void compute_delay(double seconds) {
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds));
}

struct workload {
  int rounds = 8;
  int msgs_per_round = 200;
  double base_compute_s = 0.004;
  double skew = 4.0;  // straggler multiplier (rotates: rank k%P in round k)
};

double run_sync(const routing::topology& topo, const workload& w) {
  double wall = 0;
  ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
    xoshiro256 rng(17 + static_cast<std::uint64_t>(c.rank()));
    std::uint64_t sink = 0;
    c.barrier();
    const double t0 = c.wtime();
    for (int round = 0; round < w.rounds; ++round) {
      const bool straggler = round % c.size() == c.rank();
      compute_delay(w.base_compute_s * (straggler ? w.skew : 1.0));
      std::vector<std::vector<std::uint64_t>> out(
          static_cast<std::size_t>(c.size()));
      for (int i = 0; i < w.msgs_per_round; ++i) {
        out[rng.below(static_cast<std::uint64_t>(c.size()))].push_back(
            rng());
      }
      // The superstep boundary: nobody proceeds until everyone exchanged.
      const auto in = c.alltoallv(out);
      for (const auto& v : in) {
        for (const auto x : v) sink += x;
      }
    }
    const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    if (c.rank() == 0) wall = dt;
    (void)sink;
  });
  return wall;
}

double run_async(const routing::topology& topo, routing::scheme_kind kind,
                 const workload& w) {
  double wall = 0;
  ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
    core::comm_world world(c, topo, kind);
    std::uint64_t sink = 0;
    core::mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, 4096);
    xoshiro256 rng(17 + static_cast<std::uint64_t>(c.rank()));
    c.barrier();
    const double t0 = c.wtime();
    for (int round = 0; round < w.rounds; ++round) {
      const bool straggler = round % c.size() == c.rank();
      compute_delay(w.base_compute_s * (straggler ? w.skew : 1.0));
      for (int i = 0; i < w.msgs_per_round; ++i) {
        mb.send(static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(c.size()))),
                rng());
      }
      mb.poll();  // keep forwarding while others stream
    }
    mb.wait_empty();
    const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    if (c.rank() == 0) wall = dt;
    (void)sink;
  });
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  workload w;
  w.rounds = static_cast<int>(bench::flag_int(argc, argv, "rounds", 16));
  w.skew = static_cast<double>(bench::flag_int(argc, argv, "skew", 4));

  std::printf("Ablation: asynchronous mailbox vs synchronous ALLTOALLV "
              "supersteps under compute imbalance (paper §I motivation)\n");
  bench::banner(
      "[executed] rotating straggler, " + std::to_string(w.rounds) +
          " production rounds",
      "Ideal sync wall ~ rounds * skew * base; ideal async wall ~ rounds * "
      "base * (1 + (skew-1)/P): the gap is the barrier tax the mailbox "
      "removes.");

  bench::table t({"machine", "skew", "sync alltoallv (s)",
                  "async NodeRemote (s)", "async NLNR (s)", "speedup"});
  for (const double skew : {1.0, 4.0, 8.0}) {
    workload ws = w;
    ws.skew = skew;
    const routing::topology topo(4, 4);
    const double sync_wall = run_sync(topo, ws);
    const double nr =
        run_async(topo, routing::scheme_kind::node_remote, ws);
    const double nlnr = run_async(topo, routing::scheme_kind::nlnr, ws);
    t.add_row({"4x4", bench::fmt(skew, 2), bench::fmt(sync_wall),
               bench::fmt(nr), bench::fmt(nlnr),
               bench::fmt(sync_wall / std::min(nr, nlnr), 2) + "x"});
  }
  t.print();
  std::printf(
      "\nNote: with skew 1.0 (no straggler) the two models should be close;\n"
      "the async advantage should grow toward the skew factor.\n");
  return 0;
}
