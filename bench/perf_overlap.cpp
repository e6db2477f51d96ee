// Communication/computation overlap under the progress engine
// (docs/PROGRESS.md).
//
// The paper's pseudo-asynchronous model (§IV) only makes progress when a
// rank touches the runtime, so a rank that computes for a while starves
// its mailbox: incoming packets sit in the transport until the next poll
// and total time degenerates to compute + comm. The dedicated progress
// engine is supposed to break exactly that serialization. This bench
// measures how much it does, with the classic three-run decomposition:
//
//   T_c   compute only      (busy-wait rounds, no traffic)
//   T_m   comm only         (send bursts + wait_empty, no compute)
//   T_b   both interleaved  (each round: busy-wait, then a send burst)
//
//   overlap = clamp((T_c + T_m - T_b) / min(T_c, T_m), 0, 1)
//
// 0 means fully serialized (T_b = T_c + T_m), 1 means fully hidden
// (T_b = max(T_c, T_m)). The workload runs once per progress mode:
// polling (the historical runtime: nobody moves messages while the rank
// busy-waits) and engine (compute rounds sit inside a
// progress::guard with deliver::on_engine, so the engine drains, forwards
// and delivers concurrently). The mailbox capacity is large enough that
// sends never trigger a capacity exchange — all incoming progress during
// the compute phase is the engine's doing, none is an accident of the
// send path.
//
// BENCH_overlap.json tracks overlap.engine / overlap.polling (floored
// denominator, see ratio below). One call times each workload once;
// tools/bench_ab.py repeats calls and judges the ratio on their median.
// `--tiny` shrinks everything for the CI smoke; `--bench-json=<file>`
// writes the machine-readable report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "core/progress.hpp"
#include "routing/router.hpp"

namespace {

using namespace ygm;

struct knobs {
  int rounds = 48;          ///< compute/send rounds per rank
  int compute_us = 400;     ///< compute phase per round, microseconds
  int burst = 64;           ///< messages per peer per round
  std::size_t capacity = std::size_t{1} << 18;  ///< never flush on capacity
};

/// A latency-bound compute phase: short arithmetic slices separated by
/// clock sleeps, totalling `us` microseconds of wall time away from the
/// runtime. The sliced shape (not a pure cycle-burning spin) matters: the
/// 8 ranks share a 4-core host with the engine thread, so a hot spin
/// would leave no core for ANY progress thread, making overlap physically
/// unmeasurable no matter the runtime. A rank busy about 10% of each
/// slice leaves most of every core free; the timing assumes the engine
/// gets one of them during the gaps. The slices model a rank that is out
/// of the runtime but not monopolizing its core: memory stalls, device
/// waits, oversubscribed nodes. Polling mode cannot use the gaps (nobody
/// drains until the rank returns); the engine can.
void compute(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < until) {
    const auto slice =
        std::chrono::steady_clock::now() + std::chrono::microseconds(4);
    while (std::chrono::steady_clock::now() < slice) sink = sink + 1;
    std::this_thread::sleep_for(std::chrono::microseconds(40));
  }
}

enum class workload { compute_only, comm_only, both };

/// One timed run: every rank does `rounds` of {compute phase, all-to-all
/// send burst} (phases elided per the workload), then wait_empty. Returns
/// the max-over-ranks wall time of the workload phase.
double run_workload(progress::mode pmode, workload w, const knobs& kn) {
  double wall = 0;
  run_options o;
  o.nranks = 8;
  o.progress_mode = pmode;
  launch(o, [&](mpisim::comm& c) {
    const routing::topology topo(4, 2);
    core::comm_world world(c, topo, routing::scheme_kind::nlnr);
    std::atomic<std::uint64_t> sink{0};
    core::mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink.fetch_add(v); },
        kn.capacity);
    c.barrier();
    const double t0 = c.wtime();
    {
      // Engine runs execute deliveries engine-side so the rank thread
      // never has to stop computing; polling runs take no guard at all.
      std::optional<progress::guard> g;
      if (pmode == progress::mode::engine) {
        g.emplace(world, progress::deliver::on_engine);
      }
      for (int r = 0; r < kn.rounds; ++r) {
        if (w != workload::comm_only) compute(kn.compute_us);
        if (w != workload::compute_only) {
          for (int d = 0; d < c.size(); ++d) {
            if (d == c.rank()) continue;
            for (int k = 0; k < kn.burst; ++k) {
              mb.send(d, static_cast<std::uint64_t>(r + 1));
            }
          }
          mb.flush();
        }
      }
    }
    if (w != workload::compute_only) mb.wait_empty();
    const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    if (c.rank() == 0) wall = dt;
  });
  return wall;
}

struct mode_result {
  double t_compute = 0;
  double t_comm = 0;
  double t_both = 0;
  double overlap = 0;
};

mode_result measure(progress::mode pmode, const knobs& kn) {
  mode_result r;
  r.t_compute = run_workload(pmode, workload::compute_only, kn);
  r.t_comm = run_workload(pmode, workload::comm_only, kn);
  r.t_both = run_workload(pmode, workload::both, kn);
  const double denom = std::min(r.t_compute, r.t_comm);
  if (denom > 0) {
    r.overlap = std::clamp(
        (r.t_compute + r.t_comm - r.t_both) / denom, 0.0, 1.0);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::telemetry_guard telemetry_flags(argc, argv);

  knobs kn;
  if (bench::has_flag(argc, argv, "tiny")) {
    kn.rounds = 6;
    kn.compute_us = 200;
    kn.burst = 4;
  }
  kn.rounds = static_cast<int>(
      bench::flag_int(argc, argv, "rounds", kn.rounds));
  kn.compute_us = static_cast<int>(
      bench::flag_int(argc, argv, "compute-us", kn.compute_us));
  kn.burst = static_cast<int>(bench::flag_int(argc, argv, "burst", kn.burst));

  std::printf("Progress-engine overlap: compute/comm decomposition, "
              "8 ranks (4 nodes x 2 cores), NLNR, capacity %zu B\n",
              kn.capacity);

  bench::banner(
      "overlap decomposition",
      "T_c = compute only, T_m = comm only, T_b = interleaved; overlap = "
      "clamp((T_c + T_m - T_b)/min(T_c, T_m), 0, 1). Engine rounds run "
      "inside a progress::guard (deliver::on_engine).");

  bench::table t({"progress", "T_c (s)", "T_m (s)", "T_b (s)", "overlap"});
  auto& rep = bench::json_report::instance();
  double overlaps[2] = {0, 0};
  const progress::mode modes[2] = {progress::mode::polling,
                                   progress::mode::engine};
  for (int i = 0; i < 2; ++i) {
    const auto r = measure(modes[i], kn);
    overlaps[i] = r.overlap;
    const std::string name(progress::to_string(modes[i]));
    t.add_row({name, bench::fmt(r.t_compute), bench::fmt(r.t_comm),
               bench::fmt(r.t_both), bench::fmt(r.overlap)});
    rep.add_metric("overlap." + name + ".t_compute", r.t_compute);
    rep.add_metric("overlap." + name + ".t_comm", r.t_comm);
    rep.add_metric("overlap." + name + ".t_both", r.t_both);
    rep.add_metric("overlap." + name + ".overlap", r.overlap);
  }
  t.print();

  // Polling overlap is structurally ~0 (that is the point), so the ratio
  // floors the denominator at 0.05 to stay finite and monotone: a fully
  // serialized polling run and a fully hidden engine run report 20.
  const double ratio = overlaps[1] / std::max(overlaps[0], 0.05);
  rep.add_metric("overlap.engine_vs_polling_ratio", ratio);
  std::printf("\n  overlap engine/polling ratio: %.2f\n", ratio);
  return 0;
}
