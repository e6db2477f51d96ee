// ygm_trace: offline causal-trace analyzer (docs/TELEMETRY.md §Causal
// tracing).
//
// Reads a Chrome-trace JSON produced by a run with --trace-sample > 0,
// stitches the "trace.*" hop events back into per-message journeys, and
// prints the per-scheme latency decomposition the live counters cannot
// give: p50/p99 queue residency per hop kind and the hops-per-message
// distribution, cross-checked against router::max_hops() whenever the
// trace carries the world.config/world.scheme metadata that comm_world
// stamps on rank 0's lane.
//
//   ygm_trace trace.json                      # human-readable breakdown
//   ygm_trace --selfcheck trace.json          # exit 1 on any broken journey
//   ygm_trace --selfcheck --min-journeys 5 t.json
//
// --selfcheck is the CI smoke: every stitched journey must be complete
// (exactly one deliver, one enqueue per leg, one forward per relayed leg,
// no deliver before the origin's enqueue), leg counts must match the
// router's expectation, and at least --min-journeys journeys must exist (a
// trace with zero journeys passes the invariants vacuously — the floor
// catches a sampling or piping regression). A run long enough to overwrite
// its rings loses hops, and the journeys that lost one report as broken,
// so --selfcheck only suits short runs; without it they are listed and the
// exit code stays 0.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "routing/router.hpp"
#include "telemetry/journey.hpp"
#include "telemetry/metrics.hpp"

namespace {

namespace causal = ygm::telemetry::causal;
using ygm::common::json_parser;
using ygm::common::json_value;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: ygm_trace [--selfcheck] [--min-journeys N] "
               "<trace.json>\n"
               "  Stitches causal hop events (trace.*) from a Chrome-trace\n"
               "  JSON into per-message journeys and prints hop-latency\n"
               "  breakdowns. --selfcheck exits nonzero if any journey is\n"
               "  incomplete, disagrees with the routing scheme's expected\n"
               "  leg count, or fewer than N journeys were found.\n");
  std::exit(code);
}

/// Per-world shape metadata parsed from rank 0's timeline.
struct world_info {
  int nodes = 0;
  int cores = 0;
  std::optional<ygm::routing::scheme_kind> scheme;
  bool usable() const { return nodes > 0 && cores > 0 && scheme.has_value(); }
};

double arg_num(const ygm::common::json_object& o, const char* key,
               double fallback) {
  const auto it = o.find(key);
  return it != o.end() && it->second.is_number() ? it->second.num() : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  bool selfcheck = false;
  std::size_t min_journeys = 0;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-h" || a == "--help") usage(0);
    else if (a == "--selfcheck") selfcheck = true;
    else if (a == "--min-journeys") {
      if (i + 1 >= argc) usage(2);
      min_journeys = std::strtoull(argv[++i], nullptr, 10);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "ygm_trace: unknown option '%s'\n", a.c_str());
      usage(2);
    } else if (path.empty()) {
      path = a;
    } else {
      usage(2);
    }
  }
  if (path.empty()) usage(2);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ygm_trace: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  json_value root;
  try {
    root = json_parser(buf.str()).parse();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ygm_trace: %s is not valid JSON: %s\n", path.c_str(),
                 e.what());
    return 2;
  }
  if (!root.is_object() || root.obj().count("traceEvents") == 0 ||
      !root.obj().at("traceEvents").is_array()) {
    std::fprintf(stderr, "ygm_trace: %s has no traceEvents array\n",
                 path.c_str());
    return 2;
  }

  // One pass over the events: world metadata + hop records + credit stalls.
  std::map<int, world_info> worlds;
  std::vector<causal::hop_record> hops;
  std::vector<causal::hop_record> stalls;  // credit.stall, reported apart
  for (const auto& ev : root.obj().at("traceEvents").arr()) {
    if (!ev.is_object()) continue;
    const auto& o = ev.obj();
    if (o.count("name") == 0 || !o.at("name").is_string()) continue;
    const std::string& name = o.at("name").str();
    const int pid = static_cast<int>(arg_num(o, "pid", -1));
    const ygm::common::json_object* args = nullptr;
    if (const auto it = o.find("args"); it != o.end() && it->second.is_object()) {
      args = &it->second.obj();
    }
    if (name == "world.config" && args != nullptr) {
      worlds[pid].nodes = static_cast<int>(arg_num(*args, "nodes", 0));
      worlds[pid].cores = static_cast<int>(arg_num(*args, "cores", 0));
      continue;
    }
    if (name == "world.scheme" && args != nullptr) {
      const int s = static_cast<int>(arg_num(*args, "scheme", -1));
      if (s >= 0 && s < static_cast<int>(std::size(ygm::routing::all_schemes))) {
        worlds[pid].scheme = static_cast<ygm::routing::scheme_kind>(s);
      }
      continue;
    }
    causal::hop_kind kind;
    if (!causal::parse_hop_event_name(name, kind)) continue;
    if (args == nullptr) continue;
    causal::hop_record h;
    h.world = pid;
    h.rank = static_cast<int>(arg_num(o, "tid", -1));
    h.id = static_cast<std::uint64_t>(arg_num(*args, "id", 0));
    h.kind = kind;
    h.ts_us = arg_num(o, "ts", 0);
    h.dur_us = arg_num(o, "dur", 0);
    const auto hb = static_cast<std::uint64_t>(arg_num(*args, "hb", 0));
    h.hop = causal::unpack_hop(hb);
    h.bytes = causal::unpack_bytes(hb);
    if (kind == causal::hop_kind::credit_stall) {
      // Backpressure events describe a sending rank, not a message: they
      // carry the stalled destination in `id`, never stitch into journeys,
      // and get their own report below.
      stalls.push_back(h);
      continue;
    }
    hops.push_back(h);
  }

  const causal::journey_map journeys = causal::stitch(std::move(hops));

  // Routers per world (when the trace carries the metadata) so journeys are
  // checked against the exact expected path length, not just the bound.
  std::map<int, ygm::routing::router> routers;
  for (const auto& [pid, info] : worlds) {
    if (info.usable()) {
      routers.emplace(pid, ygm::routing::router(
                               *info.scheme,
                               ygm::routing::topology(info.nodes, info.cores)));
    }
  }
  const auto expected_legs = [&](int world, int origin, int dest) -> int {
    const auto it = routers.find(world);
    if (it == routers.end() || origin < 0 || dest < 0 || origin == dest) {
      return -1;
    }
    return static_cast<int>(it->second.path(origin, dest).size());
  };
  const std::vector<std::string> errors =
      causal::check_journeys(journeys, expected_legs);

  // ------------------------------------------------------------- report
  std::printf("ygm_trace: %s\n", path.c_str());
  for (const auto& [pid, info] : worlds) {
    if (!info.usable()) continue;
    std::printf("  world %d: %d node(s) x %d core(s), scheme %s, "
                "max_hops %d\n",
                pid, info.nodes, info.cores,
                std::string(ygm::routing::to_string(*info.scheme)).c_str(),
                routers.at(pid).max_hops());
  }

  std::size_t complete = 0, in_flight = 0;
  std::map<std::size_t, std::size_t> legs_histogram;
  ygm::telemetry::histogram residency[5];  // indexed by hop_kind
  std::size_t hop_counts[5] = {};
  for (const auto& [key, j] : journeys) {
    (j.complete() ? complete : in_flight) += 1;
    if (j.complete()) ++legs_histogram[j.legs()];
    for (const auto& h : j.hops) {
      const auto k = static_cast<unsigned>(h.kind);
      ++hop_counts[k];
      if (h.kind == causal::hop_kind::flush) residency[k].record(h.dur_us);
    }
  }

  std::printf("  journeys: %zu complete, %zu in flight\n", complete,
              in_flight);
  std::printf("  %-16s %10s %12s %12s\n", "hop kind", "events", "p50 res us",
              "p99 res us");
  for (const auto k :
       {causal::hop_kind::enqueue, causal::hop_kind::flush,
        causal::hop_kind::forward, causal::hop_kind::deliver}) {
    const auto i = static_cast<unsigned>(k);
    if (hop_counts[i] == 0) continue;
    const bool has_res = residency[i].count() > 0;
    std::printf("  %-16s %10zu %12s %12s\n",
                std::string(causal::hop_event_name(k)).c_str(), hop_counts[i],
                has_res ? std::to_string(residency[i].percentile(0.5)).c_str()
                        : "-",
                has_res ? std::to_string(residency[i].percentile(0.99)).c_str()
                        : "-");
  }
  std::printf("  legs per message:");
  for (const auto& [legs, n] : legs_histogram) {
    std::printf("  %zu legs x %zu", legs, n);
  }
  std::printf("\n");

  // End-to-end wall time per journey (first enqueue -> deliver), bucketed by
  // the world's routing scheme — the offline twin of the live
  // "live.e2e_us.<scheme>" sketches, so ygm_top's online percentiles can be
  // validated against a full trace (docs/TELEMETRY.md §Live telemetry).
  std::map<std::string, ygm::telemetry::histogram> e2e_by_scheme;
  for (const auto& [key, j] : journeys) {
    if (!j.complete()) continue;
    double first_us = 0, deliver_us = 0;
    bool have_first = false, have_deliver = false;
    for (const auto& h : j.hops) {
      if (h.kind == causal::hop_kind::enqueue &&
          (!have_first || h.ts_us < first_us)) {
        first_us = h.ts_us;
        have_first = true;
      }
      if (h.kind == causal::hop_kind::deliver) {
        deliver_us = h.ts_us;
        have_deliver = true;
      }
    }
    if (!have_first || !have_deliver || deliver_us < first_us) continue;
    const auto w = worlds.find(key.first);
    const std::string scheme =
        w != worlds.end() && w->second.scheme.has_value()
            ? std::string(ygm::routing::to_string(*w->second.scheme))
            : "unknown";
    e2e_by_scheme[scheme].record(deliver_us - first_us);
  }
  if (!e2e_by_scheme.empty()) {
    std::printf("  %-16s %10s %12s %12s %12s\n", "e2e scheme", "journeys",
                "p50 us", "p99 us", "p999 us");
    for (const auto& [scheme, h] : e2e_by_scheme) {
      std::printf("  %-16s %10llu %12.1f %12.1f %12.1f\n", scheme.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  h.percentile(0.5), h.percentile(0.99), h.percentile(0.999));
    }
  }

  // Backpressure: queue residency attributable to exhausted flow-control
  // credit. Not part of any journey — a stall delays every message a rank
  // would have injected, so it is reported as rank-side time.
  if (!stalls.empty()) {
    ygm::telemetry::histogram stall_us;
    std::uint64_t max_unacked = 0;
    std::map<std::uint64_t, std::size_t> per_dest;
    for (const auto& s : stalls) {
      stall_us.record(s.dur_us);
      max_unacked = std::max(max_unacked, s.bytes);
      ++per_dest[s.id];  // id carries the stalled destination rank
    }
    std::printf("  credit stalls: %zu (p50 %.1f us, p99 %.1f us, max unacked "
                "%llu bytes)\n",
                stalls.size(), stall_us.percentile(0.5),
                stall_us.percentile(0.99),
                static_cast<unsigned long long>(max_unacked));
    std::printf("    stalled destinations:");
    for (const auto& [dest, n] : per_dest) {
      std::printf("  rank %llu x %zu", static_cast<unsigned long long>(dest),
                  n);
    }
    std::printf("\n");
  }

  // Cross-check every world's observed worst case against the scheme bound.
  bool bound_violated = false;
  for (const auto& [pid, rtr] : routers) {
    std::size_t world_max = 0;
    for (const auto& [key, j] : journeys) {
      if (key.first == pid && j.complete()) {
        world_max = std::max(world_max, j.legs());
      }
    }
    const bool ok =
        world_max <= static_cast<std::size_t>(rtr.max_hops());
    if (!ok) bound_violated = true;
    std::printf("  world %d: max observed legs %zu %s router::max_hops() %d\n",
                pid, world_max, ok ? "<=" : "EXCEEDS", rtr.max_hops());
  }

  for (const auto& e : errors) {
    std::fprintf(stderr, "ygm_trace: BROKEN %s\n", e.c_str());
  }

  if (selfcheck) {
    bool ok = errors.empty() && !bound_violated && in_flight == 0;
    if (journeys.size() < min_journeys) {
      std::fprintf(stderr,
                   "ygm_trace: selfcheck needs >= %zu journeys, found %zu\n",
                   min_journeys, journeys.size());
      ok = false;
    }
    std::printf("ygm_trace: selfcheck %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
  }
  return 0;
}
