// Ablation: exchange implementation — asynchronous mailbox vs the
// synchronous ALLTOALLV phases of paper §III-A ("On systems with optimized
// ALLTOALL implementations ... better bandwidth utilization and performance
// by implementing these exchanges using ALLTOALLV").
//
// Both implementations run the SAME routing schemes over the SAME traffic;
// the difference is purely send/recv streaming + termination detection vs
// one collective per phase. Balanced traffic favors the collective variant
// (fewer, larger, perfectly scheduled transfers); imbalanced arrival times
// favor the mailbox (no phase barriers) — together with abl_imbalance this
// brackets when each §III-A choice wins.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/collective_exchange.hpp"
#include "core/ygm.hpp"

namespace {

using namespace ygm;

struct result {
  double wall = 0;
  std::uint64_t delivered = 0;
};

result run_mailbox(const routing::topology& topo, routing::scheme_kind kind,
                   int msgs, double stagger_s) {
  result out;
  ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
    core::comm_world world(c, topo, kind);
    std::uint64_t got = 0;
    core::mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t&) { ++got; }, 4096);
    xoshiro256 rng(3 + static_cast<std::uint64_t>(c.rank()));
    c.barrier();
    const double t0 = c.wtime();
    if (stagger_s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          stagger_s * c.rank() / c.size()));
    }
    for (int i = 0; i < msgs; ++i) {
      mb.send(static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(c.size()))),
              rng());
    }
    mb.wait_empty();
    const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    const auto total = c.allreduce(got, mpisim::op_sum{});
    if (c.rank() == 0) {
      out.wall = dt;
      out.delivered = total;
    }
  });
  return out;
}

result run_collective(const routing::topology& topo,
                      routing::scheme_kind kind, int msgs, double stagger_s) {
  result out;
  ygm::launch({.nranks = topo.num_ranks()}, [&](mpisim::comm& c) {
    core::comm_world world(c, topo, kind);
    core::collective_exchange<std::uint64_t> ex(world);
    xoshiro256 rng(3 + static_cast<std::uint64_t>(c.rank()));
    c.barrier();
    const double t0 = c.wtime();
    if (stagger_s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          stagger_s * c.rank() / c.size()));
    }
    std::vector<std::pair<int, std::uint64_t>> outgoing;
    outgoing.reserve(static_cast<std::size_t>(msgs));
    for (int i = 0; i < msgs; ++i) {
      outgoing.emplace_back(static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(c.size()))),
                            rng());
    }
    const auto delivered = ex.exchange(std::move(outgoing));
    const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    const auto total = c.allreduce(
        static_cast<std::uint64_t>(delivered.size()), mpisim::op_sum{});
    if (c.rank() == 0) {
      out.wall = dt;
      out.delivered = total;
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  const int msgs =
      static_cast<int>(bench::flag_int(argc, argv, "msgs", 4000));

  std::printf("Ablation: mailbox vs ALLTOALLV exchange phases "
              "(paper §III-A)\n");
  const routing::topology topo(4, 4);

  bench::banner("[executed] balanced arrival (everyone enters together)",
                std::to_string(msgs) + " uniform messages per rank on 4x4.");
  bench::table t1({"scheme", "mailbox (s)", "alltoallv phases (s)",
                   "delivered"});
  for (const auto kind : routing::all_schemes) {
    const auto m = run_mailbox(topo, kind, msgs, 0);
    const auto a = run_collective(topo, kind, msgs, 0);
    t1.add_row({std::string(routing::to_string(kind)), bench::fmt(m.wall),
                bench::fmt(a.wall),
                std::to_string(m.delivered) + "/" +
                    std::to_string(a.delivered)});
  }
  t1.print();

  bench::banner(
      "[executed] staggered arrival (ranks enter over a 40 ms window)",
      "The collective variant cannot start a phase until the last rank "
      "arrives; the mailbox streams immediately.");
  bench::table t2({"scheme", "mailbox (s)", "alltoallv phases (s)"});
  for (const auto kind :
       {routing::scheme_kind::node_remote, routing::scheme_kind::nlnr}) {
    const auto m = run_mailbox(topo, kind, msgs, 0.04);
    const auto a = run_collective(topo, kind, msgs, 0.04);
    t2.add_row({std::string(routing::to_string(kind)), bench::fmt(m.wall),
                bench::fmt(a.wall)});
  }
  t2.print();
  std::printf(
      "\nNote: mpisim's ALLTOALLV is a plain pairwise implementation, so the\n"
      "mailbox wins even balanced runs here; the paper's §III-A point is that\n"
      "the phase structure is implementation-swappable — on machines with\n"
      "vendor-optimized collectives (BG/Q Sequoia) the collective variant won.\n");
  return 0;
}
