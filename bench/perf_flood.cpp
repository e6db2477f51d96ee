// Flood memory bound under credit backpressure (docs/BACKPRESSURE.md).
//
// The bugfix this bench guards: a hot producer flooding one destination
// used to grow the runtime's queues without limit — the producer's sends
// always succeeded immediately and every queued packet sat in memory until
// the receiver got around to draining. Credit flow control bounds the
// per-destination in-flight bytes; the producer pays for the bound with
// send-side stall time. This bench measures both sides of that trade on
// the same asymmetric workload, once with credit on and once in the
// pre-fix configuration (credit off, transport queue cap off):
//
//   peak_in_flight_bytes   producer's max unacked bytes (credit on only;
//                          must stay <= the budget)
//   rss_delta_bytes        process VmHWM growth across the run — the
//                          RSS-proxy for "how much memory the flood cost"
//   send_stall_p50/p99_us  per-send latency percentiles; with credit on
//                          the tail IS the backpressure stall
//
// The credit-on run executes first: VmHWM is monotone per process, so the
// bounded run must set its (small) high-water mark before the unbounded
// run blows the mark out by the full flood volume.
//
// BENCH_flood.json tracks flood.credit_on.peak_in_flight_bytes (bounded by
// budget) against flood.credit_off.rss_delta_bytes (the unbounded
// baseline). `--tiny` shrinks the flood for the CI smoke; `--bench-json`
// writes the machine-readable report.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "routing/router.hpp"
#include "ser/serialize.hpp"

namespace {

using namespace ygm;

struct knobs {
  int msgs = 131072;                       ///< flood messages, rank 0 -> 1
  std::size_t payload = 256;               ///< bytes per message
  std::size_t budget = 64 * 1024;          ///< credit budget (on-runs)
  std::size_t capacity = 8 * 1024;         ///< mailbox coalescing capacity
};

/// Process peak-RSS proxy in bytes (Linux VmHWM; 0 where unavailable).
std::uint64_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

struct flood_msg {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> filler;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & seq & filler;
  }
};

/// Rank 0's measurements, shipped back through the collect channel.
struct flood_out {
  std::uint64_t peak_in_flight = 0;
  std::uint64_t stalls = 0;
  std::uint64_t rss_delta = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double send_s = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar & peak_in_flight & stalls & rss_delta & p50_us & p99_us & max_us &
        send_s;
  }
};

double pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// One flood: rank 0 hammers rank 1; rank 1 sleeps through the burst and
/// only drains at wait_empty, so queued bytes have nowhere to hide.
flood_out run_flood(bool credit_on, const knobs& kn) {
  run_options o;
  o.nranks = 2;
  o.credit_bytes = credit_on ? kn.budget : std::size_t{0};
  // Pre-fix baseline: no transport-level queue cap either, so the flood's
  // memory cost is exactly the unbounded behavior being fixed.
  if (!credit_on) o.outq_cap_bytes = std::size_t{0};
  flood_out out;
  const auto blobs = launch_collect(o, [&](mpisim::comm& c) {
    core::comm_world world(c, routing::topology(1, 2),
                           routing::scheme_kind::no_route);
    std::uint64_t received = 0;
    core::mailbox<flood_msg> mb(
        world, [&](const flood_msg&) { ++received; }, kn.capacity);
    flood_out local;
    if (c.rank() == 0) {
      const std::uint64_t rss0 = peak_rss_bytes();
      flood_msg m;
      m.filler.assign(kn.payload, 0x5a);
      std::vector<double> lat;
      lat.reserve(static_cast<std::size_t>(kn.msgs));
      const auto burst0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kn.msgs; ++i) {
        m.seq = static_cast<std::uint64_t>(i);
        const auto t0 = std::chrono::steady_clock::now();
        mb.send(1, m);
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      }
      local.send_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - burst0)
                         .count();
      mb.wait_empty();
      local.rss_delta = peak_rss_bytes() - rss0;
      local.peak_in_flight = mb.credit_peak_in_flight();
      local.stalls = mb.stats().credit_stalls;
      std::sort(lat.begin(), lat.end());
      local.p50_us = pct(lat, 0.5);
      local.p99_us = pct(lat, 0.99);
      local.max_us = lat.empty() ? 0 : lat.back();
    } else {
      // Slow consumer: stay out of the runtime while the flood builds.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      mb.wait_empty();
    }
    std::vector<std::byte> blob;
    ser::append_bytes(local, blob);
    return blob;
  });
  out = ser::from_bytes<flood_out>({blobs[0].data(), blobs[0].size()});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::telemetry_guard telemetry_flags(argc, argv);

  knobs kn;
  if (bench::has_flag(argc, argv, "tiny")) {
    kn.msgs = 32768;
  }
  kn.msgs = static_cast<int>(bench::flag_int(argc, argv, "msgs", kn.msgs));
  kn.payload = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "payload",
                      static_cast<long long>(kn.payload)));
  kn.budget = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "budget",
                      static_cast<long long>(kn.budget)));

  const double flood_mib = static_cast<double>(kn.msgs) *
                           static_cast<double>(kn.payload) / (1024.0 * 1024.0);
  std::printf("Flood memory bound: 2 ranks, rank 0 -> rank 1, %d msgs x "
              "%zu B (%.1f MiB), budget %zu B\n",
              kn.msgs, kn.payload, flood_mib, kn.budget);

  bench::banner(
      "flood: bounded vs unbounded",
      "Hot producer vs sleeping consumer. credit_on bounds unacked bytes at "
      "the budget (producer stalls); credit_off is the pre-fix baseline — "
      "no credit, no transport queue cap, memory grows with the flood. "
      "rss_delta is the VmHWM growth across the run (credit_on runs first; "
      "VmHWM is monotone).");

  auto& rep = bench::json_report::instance();
  bench::table t({"config", "peak in-flight B", "rss delta B", "stalls",
                  "send p50 us", "send p99 us", "send max us"});
  // Bounded run FIRST (see banner note on VmHWM monotonicity).
  double on_rss = 0, off_rss = 0;
  for (const bool credit_on : {true, false}) {
    const auto r = run_flood(credit_on, kn);
    const std::string name = credit_on ? "credit_on" : "credit_off";
    t.add_row({name, std::to_string(r.peak_in_flight),
               std::to_string(r.rss_delta), std::to_string(r.stalls),
               bench::fmt(r.p50_us), bench::fmt(r.p99_us),
               bench::fmt(r.max_us)});
    rep.add_metric("flood." + name + ".peak_in_flight_bytes",
                   static_cast<double>(r.peak_in_flight));
    rep.add_metric("flood." + name + ".rss_delta_bytes",
                   static_cast<double>(r.rss_delta));
    rep.add_metric("flood." + name + ".credit_stalls",
                   static_cast<double>(r.stalls));
    rep.add_metric("flood." + name + ".send_stall_p50_us", r.p50_us);
    rep.add_metric("flood." + name + ".send_stall_p99_us", r.p99_us);
    rep.add_metric("flood." + name + ".send_stall_max_us", r.max_us);
    rep.add_metric("flood." + name + ".send_phase_s", r.send_s);
    (credit_on ? on_rss : off_rss) = static_cast<double>(r.rss_delta);
    if (credit_on && r.peak_in_flight > kn.budget) {
      std::fprintf(stderr,
                   "perf_flood: BOUND VIOLATED: peak in-flight %llu B > "
                   "budget %zu B\n",
                   static_cast<unsigned long long>(r.peak_in_flight),
                   kn.budget);
      return 1;
    }
  }
  t.print();

  // Headline: how much memory the bound saves. Floor the bounded run's
  // delta at one page so the ratio stays finite when the bounded flood
  // fits entirely in already-mapped pages.
  const double ratio = off_rss / std::max(on_rss, 4096.0);
  rep.add_metric("flood.unbounded_vs_bounded_rss_ratio", ratio);
  std::printf("\n  unbounded/bounded rss-delta ratio: %.1f (flood %.1f MiB, "
              "budget %zu B)\n",
              ratio, flood_mib, kn.budget);
  return 0;
}
