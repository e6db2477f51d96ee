// Figure 5: network bandwidth between two ranks as a function of message
// size, with the eager->rendezvous dip at 16 KiB, annotated with the average
// message sizes each routing scheme achieves for a fixed volume
// (paper §III-E: O(V/NC) NoRoute, O(V/N) NodeLocal/NodeRemote, O(VC/N)
// NLNR at 32 cores/node).
//
// Two series are printed: the calibrated Quartz-like network model (the
// wire this repo's benches price traffic on) and an executed mpisim
// ping-pong (in-process shared memory, so absolute numbers differ wildly —
// it validates the runtime, not the wire).
#include <cstdio>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "ser/serialize.hpp"

namespace {

using namespace ygm;

// Rank-0 results must travel through launch_collect's serialized
// channel: with YGM_TRANSPORT=socket the rank bodies are forked processes,
// so writing captured locals from inside the lambda would be lost.
template <class T>
T collect_rank0(int nranks, const std::function<T(mpisim::comm&)>& body) {
  const auto blobs =
      ygm::launch_collect({.nranks = nranks}, [&](mpisim::comm& c) {
        const T v = body(c);
        std::vector<std::byte> out;
        if (c.rank() == 0) ser::append_bytes(v, out);
        return out;
      });
  return ser::from_bytes<T>({blobs[0].data(), blobs[0].size()});
}

void model_curve() {
  const auto np = net::network_params::quartz_like();
  bench::banner("Fig. 5 [model] point-to-point bandwidth vs message size",
                "Quartz-like model: MVAPICH-style eager<16KiB, rendezvous "
                "above (the dip).");
  bench::table t({"msg size", "remote bw", "local bw", "regime"});
  const auto row = [&](std::size_t s) {
    t.add_row({format_bytes(static_cast<double>(s)),
               format_rate(np.remote.bandwidth(static_cast<double>(s))),
               format_rate(np.local.bandwidth(static_cast<double>(s))),
               s < np.remote.eager_threshold ? "eager" : "rendezvous"});
  };
  for (std::size_t s = 8; s <= (std::size_t{64} << 20); s *= 4) {
    // Make the protocol-switch dip explicit when the stride crosses it.
    if (s >= np.remote.eager_threshold &&
        s / 4 < np.remote.eager_threshold) {
      row(np.remote.eager_threshold - 1);
      row(np.remote.eager_threshold);
    }
    row(s);
  }
  t.print();

  // The paper's annotation: where each scheme's average message lands for a
  // fixed per-core volume on a 32-core/node machine.
  const double V = 256.0 * 1024 * 1024;  // 256 MiB per core
  const int C = 32;
  bench::banner("Fig. 5 annotation: average remote message size per scheme",
                "V = 256 MiB per core, C = 32 cores/node (paper values).");
  bench::table a({"scheme", "formula", "N=64", "N=1024"});
  const auto scheme_row = [&](const char* scheme, const char* formula,
                              double at64, double at1024) {
    a.add_row({scheme, formula,
               format_bytes(at64) + " @ " +
                   format_rate(np.remote.bandwidth(at64)),
               format_bytes(at1024) + " @ " +
                   format_rate(np.remote.bandwidth(at1024))});
  };
  scheme_row("NoRoute", "V/((N-1)C)", V / (63.0 * C), V / (1023.0 * C));
  scheme_row("NodeLocal/NodeRemote", "V/(N-1)", V / 63.0, V / 1023.0);
  scheme_row("NLNR", "VC/N", V * C / 64.0, V * C / 1024.0);
  a.print();
}

void executed_pingpong() {
  bench::banner("Fig. 5 [executed] mpisim ping-pong between two rank-threads",
                "In-process shared memory; validates the transport, not the "
                "modeled wire.");
  bench::table t({"msg size", "round trips", "achieved rate"});
  for (std::size_t s = 1024; s <= (std::size_t{4} << 20); s *= 4) {
    const int reps = s <= 65536 ? 200 : 25;
    const double rate = collect_rank0<double>(2, [&](mpisim::comm& c) {
      std::vector<std::byte> payload(s);
      c.barrier();
      const double t0 = c.wtime();
      for (int i = 0; i < reps; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(1, 0, std::vector<std::byte>(payload));
          (void)c.recv_bytes(1, 0);
        } else {
          (void)c.recv_bytes(0, 0);
          c.send_bytes(0, 0, std::vector<std::byte>(payload));
        }
      }
      const double dt = c.wtime() - t0;
      return c.rank() == 0 ? 2.0 * static_cast<double>(s) * reps / dt : 0.0;
    });
    t.add_row({format_bytes(static_cast<double>(s)), std::to_string(reps),
               format_rate(rate)});
  }
  t.print();
}

// All-to-all through a real NLNR mailbox on a 2-node x 2-core shape. The
// bandwidth numbers come from the ping-pong above; this section exists so a
// --trace-sample run emits multi-leg causal journeys that tools/ygm_trace
// can stitch and cross-check (the CI smoke pipes this bench's trace through
// `ygm_trace --selfcheck`).
void executed_mailbox_all_to_all() {
  bench::banner("Fig. 5 [executed] NLNR mailbox all-to-all, 2 nodes x 2 "
                "cores",
                "Coalesced multi-hop traffic; pair with --trace-sample=1.0 "
                "and ygm_trace for the per-hop breakdown.");
  const routing::topology topo(2, 2);
  constexpr int msgs_per_pair = 100;
  bench::table t({"msgs sent", "delivered", "wall (s)"});
  using row_t = std::tuple<std::uint64_t, std::uint64_t, double>;
  const auto [sent, delivered, wall] =
      collect_rank0<row_t>(topo.num_ranks(), [&](mpisim::comm& c) {
        core::comm_world world(c, topo, routing::scheme_kind::nlnr);
        std::uint64_t local_recv = 0;
        core::mailbox<std::uint64_t> mb(
            world, [&](const std::uint64_t&) { ++local_recv; }, 4096);
        c.barrier();
        const double t0 = c.wtime();
        std::uint64_t local_sent = 0;
        for (int i = 0; i < msgs_per_pair; ++i) {
          for (int d = 0; d < c.size(); ++d) {
            if (d == c.rank()) continue;
            mb.send(d, static_cast<std::uint64_t>(i));
            ++local_sent;
          }
        }
        mb.wait_empty();
        const double dt = c.allreduce(c.wtime() - t0, mpisim::op_max{});
        const auto s = c.allreduce(local_sent, mpisim::op_sum{});
        const auto r = c.allreduce(local_recv, mpisim::op_sum{});
        return row_t{s, r, dt};
      });
  t.add_row({std::to_string(sent), std::to_string(delivered),
             bench::fmt(wall)});
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  (void)argc;
  (void)argv;
  std::printf("Fig. 5 reproduction: bandwidth vs message size "
              "(paper: MVAPICH 2.3 / Omni-Path on Quartz)\n");
  model_curve();
  executed_pingpong();
  executed_mailbox_all_to_all();
  return 0;
}
