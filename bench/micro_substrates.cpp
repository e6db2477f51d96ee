// Micro-benchmarks (google-benchmark) for the CPU-bound substrate paths the
// mailbox's per-message costs are built from: serialization, varints,
// packet framing, and routing-hop computation. These are the "cpu_s_per_msg"
// terms of the network model; run them to re-calibrate
// net::network_params on new hardware.
//
// Before the google-benchmark suite, an executed section measures whole
// worlds on each transport backend (inproc threads vs. multi-process Unix
// sockets vs. multi-process shared-memory rings) and reports msgs/s through
// the --bench-json pipeline, once per call; BENCH_transport.json at the
// repo root holds their medians over repeated calls (tools/bench_ab.py).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "core/packet.hpp"
#include "graph/delegates.hpp"
#include "graph/rmat.hpp"
#include "linalg/csc.hpp"
#include "routing/router.hpp"
#include "ser/serialize.hpp"
#include "transport/endpoint.hpp"

namespace {

using namespace ygm;

void BM_VarintEncode(benchmark::State& state) {
  std::vector<std::byte> out;
  std::uint64_t v = 0;
  for (auto _ : state) {
    out.clear();
    ser::varint_encode(v, out);
    v = v * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VarintEncode);

void BM_VarintDecode(benchmark::State& state) {
  std::vector<std::byte> buf;
  xoshiro256 rng(1);
  for (int i = 0; i < 1024; ++i) {
    ser::varint_encode(rng() >> (rng() % 64), buf);
  }
  const std::byte* p = buf.data();
  const std::byte* end = buf.data() + buf.size();
  for (auto _ : state) {
    if (p == end) p = buf.data();
    benchmark::DoNotOptimize(ser::varint_decode(p, end));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VarintDecode);

void BM_SerializePodVector(benchmark::State& state) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(state.range(0)));
  xoshiro256 rng(2);
  for (auto& x : v) x = rng();
  std::vector<std::byte> out;
  for (auto _ : state) {
    out.clear();
    ser::append_bytes(v, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v.size() * 8));
}
BENCHMARK(BM_SerializePodVector)->Range(8, 1 << 14);

void BM_RoundTripStringMap(benchmark::State& state) {
  std::map<std::string, std::vector<std::uint32_t>> m;
  for (int i = 0; i < 32; ++i) {
    m["key-" + std::to_string(i)] = std::vector<std::uint32_t>(16, 7);
  }
  for (auto _ : state) {
    const auto bytes = ser::to_bytes(m);
    auto back =
        ser::from_bytes<std::map<std::string, std::vector<std::uint32_t>>>(
            {bytes.data(), bytes.size()});
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_RoundTripStringMap);

void BM_PacketAppendParse(benchmark::State& state) {
  // The mailbox's hot path: frame a message record, then parse it back.
  const std::vector<std::byte> payload(16);
  std::vector<std::byte> packet;
  for (auto _ : state) {
    packet.clear();
    for (int i = 0; i < 64; ++i) {
      core::packet_append(packet, false, i, {payload.data(), payload.size()});
    }
    core::packet_reader reader({packet.data(), packet.size()});
    while (!reader.done()) {
      benchmark::DoNotOptimize(reader.next());
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PacketAppendParse);

void BM_NextHop(benchmark::State& state) {
  const auto kind = static_cast<routing::scheme_kind>(state.range(0));
  const routing::router r(kind, routing::topology(1024, 36));
  xoshiro256 rng(3);
  const int nc = 1024 * 36;
  for (auto _ : state) {
    const int s = static_cast<int>(rng.below(nc));
    int d = static_cast<int>(rng.below(nc));
    if (d == s) d = (d + 1) % nc;
    benchmark::DoNotOptimize(r.next_hop(s, d));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(routing::to_string(kind)));
}
BENCHMARK(BM_NextHop)->DenseRange(0, 3);

void BM_BcastTreeExpansion(benchmark::State& state) {
  const routing::router r(routing::scheme_kind::nlnr,
                          routing::topology(64, 8));
  xoshiro256 rng(4);
  for (auto _ : state) {
    const int origin = static_cast<int>(rng.below(512));
    benchmark::DoNotOptimize(r.bcast_next_hops(origin, origin));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BcastTreeExpansion);

void BM_ScrambleVertex(benchmark::State& state) {
  xoshiro256 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::scramble_vertex(rng(), 32));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScrambleVertex);

void BM_RmatSample(benchmark::State& state) {
  const graph::rmat_generator g(24, 1, graph::rmat_params::graph500(), 1, 0,
                                1);
  xoshiro256 rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RmatSample);

// owner() + local_index() of one scale-16 vertex id, as a receiver asks
// for both: P = 4 takes the shift/mask path, P = 6 the divide. The two
// calls share one expression, as at the call sites that need both; an
// optimization barrier between them would keep GCC from merging the two
// divides of the P = 6 path into one.
void BM_PartitionOwner(benchmark::State& state) {
  const graph::round_robin_partition part{static_cast<int>(state.range(0))};
  xoshiro256 rng(8);
  std::vector<graph::vertex_id> ids(4096);
  for (auto& v : ids) v = rng.below(std::uint64_t{1} << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    const graph::vertex_id v = ids[i++ & 4095];
    benchmark::DoNotOptimize(static_cast<std::uint64_t>(part.owner(v)) ^
                             part.local_index(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionOwner)->Arg(4)->Arg(6);

// delegate_set::contains with 700 delegates among 2^16 vertices (the
// repo benchmark's cc_rmat selects 697): arg 1 probes members, arg 0
// non-members.
void BM_DelegateContains(benchmark::State& state) {
  const bool members = state.range(0) == 1;
  xoshiro256 rng(9);
  std::set<graph::vertex_id> chosen;
  while (chosen.size() < 700) chosen.insert(rng.below(std::uint64_t{1} << 16));
  const graph::delegate_set d(
      std::vector<graph::vertex_id>(chosen.begin(), chosen.end()));
  std::vector<graph::vertex_id> probes;
  while (probes.size() < 4096) {
    const graph::vertex_id v = rng.below(std::uint64_t{1} << 16);
    if ((chosen.count(v) != 0) == members) probes.push_back(v);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.contains(probes[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(members ? "member" : "non-member");
}
BENCHMARK(BM_DelegateContains)->Arg(1)->Arg(0);

void BM_CscMultiply(benchmark::State& state) {
  const std::uint64_t n = 4096;
  xoshiro256 rng(7);
  std::vector<linalg::triplet> t;
  for (int i = 0; i < 1 << 16; ++i) {
    t.push_back({rng.below(n), rng.below(n), 1.0});
  }
  const auto m = linalg::csc_matrix::from_triplets(n, n, std::move(t));
  const std::vector<double> x(n, 1.0);
  std::vector<double> y(n, 0.0);
  for (auto _ : state) {
    m.multiply_add(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.num_nonzeros()));
}
BENCHMARK(BM_CscMultiply);

// ------------------------- executed per-backend substrate message rates
//
// Unlike the loops above, these spin up whole worlds (threads or forked
// processes), so they run once per backend instead of under the
// google-benchmark timer, and publish their rates with add_metric so a
// --bench-json run captures them. The same workload runs on both backends:
// the inproc/socket spread *is* the measurement — it prices what leaving
// the shared address space costs per message.

// (delivered msgs world-wide, payload bytes delivered, wall seconds by the
// slowest rank) — serialized through launch_collect's result channel
// because socket rank bodies are forked processes.
using rate_row = std::tuple<std::uint64_t, std::uint64_t, double>;

rate_row collect_rate(transport::backend_kind backend, int nranks,
                      const std::function<rate_row(mpisim::comm&)>& body) {
  // Chaos pinned off so YGM_CHAOS cannot skew the rates.
  const ygm::run_options opts{
      .nranks = nranks, .backend = backend, .chaos = mpisim::chaos_config{}};
  const auto blobs = ygm::launch_collect(opts, [&](mpisim::comm& c) {
    const rate_row r = body(c);
    std::vector<std::byte> out;
    if (c.rank() == 0) ser::append_bytes(r, out);
    return out;
  });
  return ser::from_bytes<rate_row>({blobs[0].data(), blobs[0].size()});
}

// Raw endpoint flood: every rank sends `msgs` framed envelopes to every
// peer, then drains. No mailbox, no routing — the bare post/recv cost.
rate_row p2p_flood(transport::backend_kind backend, int nranks, int msgs,
                   std::size_t payload_bytes) {
  return collect_rate(backend, nranks, [&](mpisim::comm& c) {
    c.barrier();
    const double t0 = c.wtime();
    for (int i = 0; i < msgs; ++i) {
      for (int d = 0; d < c.size(); ++d) {
        if (d == c.rank()) continue;
        c.send_bytes(d, 0, std::vector<std::byte>(payload_bytes));
      }
    }
    std::uint64_t recvd = 0;
    for (int d = 0; d < c.size(); ++d) {
      if (d == c.rank()) continue;
      for (int i = 0; i < msgs; ++i) {
        (void)c.recv_bytes(d, 0);
        ++recvd;
      }
    }
    const double wall = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    const auto total = c.allreduce(recvd, mpisim::op_sum{});
    return rate_row{total, total * payload_bytes, wall};
  });
}

// NLNR mailbox all-to-all: the full stack (routing, packet framing,
// termination detection) over the backend, every hop coalesced into
// packets at 4 KiB capacity.
template <class Msg>
rate_row mailbox_all_to_all(transport::backend_kind backend,
                            routing::topology topo, int msgs) {
  return collect_rate(backend, topo.num_ranks(), [&](mpisim::comm& c) {
    core::comm_world world(c, topo, routing::scheme_kind::nlnr);
    std::uint64_t local_recv = 0;
    core::mailbox<Msg> mb(
        world, [&](const Msg&) { ++local_recv; }, 4096);
    const Msg m{};
    c.barrier();
    const double t0 = c.wtime();
    for (int i = 0; i < msgs; ++i) {
      for (int d = 0; d < c.size(); ++d) {
        if (d == c.rank()) continue;
        mb.send(d, m);
      }
    }
    mb.wait_empty();
    const double wall = c.allreduce(c.wtime() - t0, mpisim::op_max{});
    const auto total = c.allreduce(local_recv, mpisim::op_sum{});
    return rate_row{total, total * sizeof(Msg), wall};
  });
}

/// Adds the row and its metrics; returns its msgs/s.
double report_rate(bench::table& t, const std::string& backend,
                   const std::string& workload, const rate_row& r) {
  const auto [delivered, bytes, wall] = r;
  const double msgs_per_sec =
      wall > 0 ? static_cast<double>(delivered) / wall : 0;
  const double mb_per_sec =
      wall > 0 ? static_cast<double>(bytes) / wall / 1e6 : 0;
  t.add_row({backend, workload, std::to_string(delivered), bench::fmt(wall),
             bench::fmt(msgs_per_sec), bench::fmt(mb_per_sec)});
  auto& rep = bench::json_report::instance();
  const std::string key = "substrate." + backend + "." + workload;
  rep.add_metric(key + ".msgs_per_sec", msgs_per_sec);
  rep.add_metric(key + ".mb_per_sec", mb_per_sec);
  return msgs_per_sec;
}

void substrate_message_rates() {
  bench::banner(
      "Executed message rates per transport backend (4 ranks)",
      "Same workloads on inproc (threads, shared memory), socket (forked "
      "processes, Unix-domain sockets), and shm (forked processes, "
      "shared-memory SPSC rings); the socket/shm spread prices the kernel "
      "socket path against a user-space ring crossing the same process "
      "boundary. mailbox_local sends 1 KiB records, all traffic "
      "node-local.");
  constexpr int p2p_msgs = 1500;       // per (rank, peer) pair
  constexpr std::size_t p2p_bytes = 64;
  constexpr int mbx_msgs = 20000;      // per (rank, peer) pair
  constexpr int local_msgs = 4000;     // per (rank, peer) pair, 1 KiB each
  // 1 KiB records for the node-local row: payload bytes, not per-record
  // framing, dominate, so the row prices the transport's copies.
  using local_record = std::array<std::uint64_t, 128>;
  bench::table t(
      {"backend", "workload", "delivered", "wall (s)", "msgs/s", "MB/s"});
  double local_rate[3] = {};  // mailbox_local msgs/s, by backend
  for (const auto backend :
       {transport::backend_kind::inproc, transport::backend_kind::socket,
        transport::backend_kind::shm}) {
    const std::string name(transport::to_string(backend));
    report_rate(t, name, "p2p", p2p_flood(backend, 4, p2p_msgs, p2p_bytes));
    report_rate(t, name, "mailbox",
                mailbox_all_to_all<std::uint64_t>(
                    backend, routing::topology(2, 2), mbx_msgs));
    // Node-local shape (one node, four cores): every hop stays inside the
    // node, so the backend's same-node path is the whole story.
    local_rate[static_cast<int>(backend)] = report_rate(
        t, name, "mailbox_local",
        mailbox_all_to_all<local_record>(backend, routing::topology(1, 4),
                                         local_msgs));
  }
  t.print();
  // shm over socket on the same-node path, as one ratio per call.
  const double socket_rate =
      local_rate[static_cast<int>(transport::backend_kind::socket)];
  bench::json_report::instance().add_metric(
      "substrate.mailbox_local.shm_vs_socket_ratio",
      socket_rate > 0
          ? local_rate[static_cast<int>(transport::backend_kind::shm)] /
                socket_rate
          : 0);
}

}  // namespace

// Custom main instead of benchmark_main: the telemetry_guard owns the
// --bench-json report and the executed substrate section runs outside the
// google-benchmark timer. ReportUnrecognizedArguments is deliberately not
// called — the guard's own flags (--bench-json, --trace-*, ...) stay in
// argv and google-benchmark must tolerate them.
int main(int argc, char** argv) {
  const ygm::bench::telemetry_guard telemetry(argc, argv);
  substrate_message_rates();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
