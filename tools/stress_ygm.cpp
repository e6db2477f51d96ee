// stress_ygm: chaos-sweep driver for the YGM runtime (docs/CHAOS.md).
//
// Runs the delivery-invariant trial harness (core/invariants.hpp) over a
// grid of seeds x routing schemes x timed mode x chaos presets, with machine
// shape and capacity rotating per seed. Any invariant violation prints the
// complete reproduction recipe and makes the process exit nonzero —
// rerunning with the printed flags replays the exact fault pattern.
//
//   stress_ygm --seeds 64                            # the default full sweep
//   stress_ygm --seeds 1 --seed-base 19 --schemes nlnr --timed on
//              --chaos heavy                         # replay one recipe
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "core/invariants.hpp"
#include "core/launch.hpp"
#include "core/progress.hpp"
#include "ser/serialize.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tp = ygm::transport;
using sim::chaos_config;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;

struct options {
  std::uint64_t seeds = 64;
  std::uint64_t seed_base = 0;
  std::vector<scheme_kind> schemes{std::begin(ygm::routing::all_schemes),
                                   std::end(ygm::routing::all_schemes)};
  std::vector<bool> timed_modes{false, true};
  std::vector<std::string> presets{"light", "heavy"};
  std::vector<std::pair<int, int>> topos{{2, 2}, {1, 4}, {4, 2}, {2, 3}};
  std::vector<std::size_t> capacities{1, 24, 96, 65536};
  int msgs = 40;
  int bcasts = 3;
  int epochs = 2;
  // Flood mode (docs/BACKPRESSURE.md): rank 0 additionally hammers the
  // last rank at ~this many bytes/s per epoch; 0 = off.
  std::uint64_t flood_bytes_per_s = 0;
  // Per-destination credit budget override for the sweep; 0 = the resolved
  // default (YGM_CREDIT_BYTES / 1 MiB).
  std::uint64_t credit_bytes = 0;
  // Optional knob overrides (negative = use preset value).
  double delay_prob = -1, miss_prob = -1, stall_prob = -1;
  long delay_ticks = -1, stall_us = -1;
  // Causal-tracing passthrough (docs/TELEMETRY.md §Causal tracing).
  double trace_sample = -1;
  std::string trace_out;
  std::string postmortem_out;
  // Live-telemetry axes (docs/TELEMETRY.md §Live telemetry); -1 = defer to
  // YGM_SAMPLE_MS / YGM_STATUSZ so env-driven sweeps still replay.
  int sample_ms = -1;
  int statusz = -1;
  // Transport backend; unset = YGM_TRANSPORT passthrough (default inproc),
  // so a chaos recipe names its backend either way.
  std::optional<tp::backend_kind> backend;
  // Progress modes to sweep; default polling only (the historical sweep).
  // Engine trials wrap injection in a progress::guard so the engine
  // competes with the rank threads for the same packets.
  std::vector<ygm::progress::mode> progress_modes{
      ygm::progress::mode::polling};
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: stress_ygm [options]\n"
      "  --seeds N            seeds per grid cell (default 64)\n"
      "  --seed-base B        first seed (default 0)\n"
      "  --schemes a,b,..     NoRoute|NodeLocal|NodeRemote|NLNR,\n"
      "                       case-insensitive (default all four)\n"
      "  --timed M            on|off|both (default both)\n"
      "  --chaos M            light|heavy|both (default both)\n"
      "  --backend B          transport backend: inproc|socket|shm (default:\n"
      "                       $YGM_TRANSPORT, else inproc)\n"
      "  --progress M         polling|engine|both (default polling);\n"
      "                       engine starts the dedicated progress thread\n"
      "                       (untimed trials only get real engine help)\n"
      "  --topos NxC,..       machine shapes rotated per seed\n"
      "  --capacities a,b,..  mailbox capacities rotated per seed\n"
      "  --flood B            flood mode: rank 0 also hammers the last rank\n"
      "                       at ~B bytes/s per epoch (hot producer vs slow\n"
      "                       consumer; exercises credit backpressure)\n"
      "  --credit-bytes B     per-destination flow-control budget override\n"
      "                       (default: $YGM_CREDIT_BYTES, else 1 MiB)\n"
      "  --msgs N             p2p messages per rank per epoch (default 40)\n"
      "  --bcasts N           broadcasts per rank per epoch (default 3)\n"
      "  --epochs N           communication epochs per trial (default 2)\n"
      "  --delay-prob P --max-delay-ticks T --iprobe-miss-prob P\n"
      "  --stall-prob P --max-stall-us U\n"
      "                       override individual chaos knobs\n"
      "  --sample-ms N        live time-series sampler period in ms for every\n"
      "                       trial (0 = off; default: $YGM_SAMPLE_MS, else\n"
      "                       100). Chaos with the sampler on is a telemetry\n"
      "                       regression axis, not an invariant change\n"
      "  --statusz            serve the per-process statusz endpoint during\n"
      "                       trials (default: $YGM_STATUSZ, else off)\n"
      "  --trace-sample R     causal-trace sample rate in [0,1] (default 0)\n"
      "  --trace-out F        write a Chrome trace of the whole sweep to F\n"
      "  --postmortem-out F   stall-watchdog flight-recorder dump file\n"
      "                       (arms a 10 s watchdog if none configured)\n");
  std::exit(code);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

scheme_kind parse_scheme(const std::string& s) {
  auto lower = [](std::string v) {
    for (auto& ch : v) ch = static_cast<char>(std::tolower(ch));
    return v;
  };
  for (auto k : ygm::routing::all_schemes) {
    if (lower(s) == lower(std::string(ygm::routing::to_string(k)))) return k;
  }
  std::fprintf(stderr, "stress_ygm: unknown scheme '%s'\n", s.c_str());
  std::exit(2);
}

std::vector<bool> parse_on_off_both(const std::string& s, const char* flag) {
  if (s == "on") return {true};
  if (s == "off") return {false};
  if (s == "both") return {false, true};
  std::fprintf(stderr, "stress_ygm: %s must be on|off|both, got '%s'\n", flag,
               s.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) usage(2);
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-h" || a == "--help") usage(0);
    else if (a == "--seeds") o.seeds = std::strtoull(need(i++).c_str(), nullptr, 10);
    else if (a == "--seed-base") o.seed_base = std::strtoull(need(i++).c_str(), nullptr, 10);
    else if (a == "--flood") o.flood_bytes_per_s = std::strtoull(need(i++).c_str(), nullptr, 10);
    else if (a == "--credit-bytes") o.credit_bytes = std::strtoull(need(i++).c_str(), nullptr, 10);
    else if (a == "--msgs") o.msgs = std::atoi(need(i++).c_str());
    else if (a == "--bcasts") o.bcasts = std::atoi(need(i++).c_str());
    else if (a == "--epochs") o.epochs = std::atoi(need(i++).c_str());
    else if (a == "--schemes") {
      o.schemes.clear();
      for (const auto& s : split_list(need(i++))) o.schemes.push_back(parse_scheme(s));
    } else if (a == "--backend" || a.rfind("--backend=", 0) == 0) {
      const auto v = a == "--backend" ? need(i++) : a.substr(10);
      const auto k = tp::backend_from_name(v);
      if (!k) {
        std::fprintf(stderr, "stress_ygm: unknown backend '%s'\n", v.c_str());
        std::exit(2);
      }
      o.backend = *k;
    } else if (a == "--timed") {
      o.timed_modes = parse_on_off_both(need(i++), "--timed");
    } else if (a == "--progress" || a.rfind("--progress=", 0) == 0) {
      const auto v = a == "--progress" ? need(i++) : a.substr(11);
      using ygm::progress::mode;
      if (v == "both") {
        o.progress_modes = {mode::polling, mode::engine};
      } else if (const auto m = ygm::progress::mode_from_name(v)) {
        o.progress_modes = {*m};
      } else {
        std::fprintf(stderr,
                     "stress_ygm: --progress must be polling|engine|both, "
                     "got '%s'\n",
                     v.c_str());
        std::exit(2);
      }
    } else if (a == "--chaos") {
      const auto v = need(i++);
      if (v == "light" || v == "heavy") o.presets = {v};
      else if (v == "both") o.presets = {"light", "heavy"};
      else usage(2);
    } else if (a == "--topos") {
      o.topos.clear();
      for (const auto& s : split_list(need(i++))) {
        const auto x = s.find('x');
        if (x == std::string::npos) usage(2);
        o.topos.emplace_back(std::atoi(s.substr(0, x).c_str()),
                             std::atoi(s.substr(x + 1).c_str()));
      }
    } else if (a == "--capacities") {
      o.capacities.clear();
      for (const auto& s : split_list(need(i++))) {
        o.capacities.push_back(std::strtoull(s.c_str(), nullptr, 10));
      }
    }
    else if (a == "--delay-prob") o.delay_prob = std::atof(need(i++).c_str());
    else if (a == "--max-delay-ticks") o.delay_ticks = std::atol(need(i++).c_str());
    else if (a == "--iprobe-miss-prob") o.miss_prob = std::atof(need(i++).c_str());
    else if (a == "--stall-prob") o.stall_prob = std::atof(need(i++).c_str());
    else if (a == "--max-stall-us") o.stall_us = std::atol(need(i++).c_str());
    else if (a == "--sample-ms") o.sample_ms = std::atoi(need(i++).c_str());
    else if (a == "--statusz") o.statusz = 1;
    else if (a == "--trace-sample") o.trace_sample = std::atof(need(i++).c_str());
    else if (a == "--trace-out") o.trace_out = need(i++);
    else if (a == "--postmortem-out") o.postmortem_out = need(i++);
    else {
      std::fprintf(stderr, "stress_ygm: unknown option '%s'\n", a.c_str());
      usage(2);
    }
  }
  if (o.schemes.empty() || o.topos.empty() || o.capacities.empty()) usage(2);
  return o;
}

chaos_config make_chaos(const options& o, const std::string& preset,
                        std::uint64_t seed) {
  chaos_config cfg = preset == "heavy" ? chaos_config::heavy(seed)
                                       : chaos_config::light(seed);
  if (o.delay_prob >= 0) cfg.delay_prob = o.delay_prob;
  if (o.delay_ticks >= 0) cfg.max_delay_ticks = static_cast<std::uint32_t>(o.delay_ticks);
  if (o.miss_prob >= 0) cfg.iprobe_miss_prob = o.miss_prob;
  if (o.stall_prob >= 0) cfg.stall_prob = o.stall_prob;
  if (o.stall_us >= 0) cfg.max_stall_us = static_cast<std::uint32_t>(o.stall_us);
  return cfg;
}

std::vector<std::string> run_one(const trial_config& t,
                                 tp::backend_kind backend,
                                 ygm::progress::mode pmode, int sample_ms,
                                 int statusz) {
  // Violations come back through the serialized result channel: on the
  // socket backend rank bodies live in forked processes, so a
  // gather-to-rank-0 inside the world would never reach this process.
  const ygm::run_options opts{.nranks = t.num_ranks(),
                              .backend = backend,
                              .chaos = t.chaos,
                              .progress_mode = pmode,
                              .sample_ms = sample_ms,
                              .statusz = statusz};
  const auto blobs = ygm::launch_collect(opts, [&](sim::comm& c) {
    const auto local = run_chaos_trial(c, t);
    std::vector<std::byte> out;
    ygm::ser::append_bytes(local, out);
    return out;
  });
  std::vector<std::string> all;
  for (const auto& b : blobs) {
    const auto local =
        ygm::ser::from_bytes<std::vector<std::string>>({b.data(), b.size()});
    all.insert(all.end(), local.begin(), local.end());
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  const tp::backend_kind backend =
      o.backend ? *o.backend : tp::backend_from_env();
  const std::string backend_name(tp::to_string(backend));

  namespace telemetry = ygm::telemetry;
  if (o.trace_sample >= 0) telemetry::causal::set_sample_rate(o.trace_sample);
  if (!o.postmortem_out.empty()) {
    telemetry::causal::set_postmortem_path(o.postmortem_out);
    if (telemetry::causal::stall_timeout_ms() <= 0) {
      telemetry::causal::set_stall_timeout_ms(10000);
    }
  }
  // Tracing and the watchdog both record into per-rank telemetry lanes, so
  // either knob needs a session installed for the whole sweep.
  std::unique_ptr<telemetry::session> tsession;
  if (o.trace_sample > 0 || !o.trace_out.empty() ||
      !o.postmortem_out.empty()) {
    tsession = std::make_unique<telemetry::session>();
    telemetry::set_global(tsession.get());
  }

  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
  for (auto scheme : o.schemes) {
    for (const bool timed : o.timed_modes) {
      for (const auto pmode : o.progress_modes) {
        // The engine refuses to advance timed worlds (virtual time is
        // rank-driven), so engine x timed would silently degenerate to
        // polling; skip the cell rather than report a vacuous pass.
        if (pmode == ygm::progress::mode::engine && timed) continue;
        for (const auto& preset : o.presets) {
          for (std::uint64_t s = 0; s < o.seeds; ++s) {
            const std::uint64_t seed = o.seed_base + s;
            trial_config t;
            t.seed = seed;
            t.scheme = scheme;
            const auto [n, c] = o.topos[seed % o.topos.size()];
            t.nodes = n;
            t.cores = c;
            t.capacity = o.capacities[seed % o.capacities.size()];
            t.timed = timed;
            t.serialize_self_sends = (seed % 4) == 2;
            t.msgs_per_rank = o.msgs;
            t.bcasts_per_rank = o.bcasts;
            t.epochs = o.epochs;
            t.chaos = make_chaos(o, preset, seed);
            t.use_progress_guard = pmode == ygm::progress::mode::engine;
            t.credit_bytes = static_cast<std::size_t>(o.credit_bytes);
            t.flood_bytes_per_s =
                static_cast<std::size_t>(o.flood_bytes_per_s);

            ++trials;
            std::vector<std::string> violations;
            try {
              violations = run_one(t, backend, pmode, o.sample_ms, o.statusz);
            } catch (const std::exception& e) {
              violations.push_back(std::string("exception: ") + e.what());
            }
            if (!violations.empty()) {
              ++failures;
              const std::string scheme_name(
                  ygm::routing::to_string(t.scheme));
              const std::string pmode_name(ygm::progress::to_string(pmode));
              // The flow-control knobs ride on the recipe only when set, so
              // historical recipes replay byte-identically.
              std::string flow_flags;
              if (o.flood_bytes_per_s != 0) {
                flow_flags +=
                    " --flood " + std::to_string(o.flood_bytes_per_s);
              }
              if (o.credit_bytes != 0) {
                flow_flags +=
                    " --credit-bytes " + std::to_string(o.credit_bytes);
              }
              if (o.sample_ms >= 0) {
                flow_flags += " --sample-ms " + std::to_string(o.sample_ms);
              }
              if (o.statusz == 1) flow_flags += " --statusz";
              std::fprintf(stderr,
                           "FAIL backend=%s chaos=%s progress=%s %s\n"
                           "     replay: stress_ygm --seeds 1 --seed-base %llu"
                           " --schemes %s --timed %s --chaos %s --msgs %d"
                           " --bcasts %d --epochs %d --backend %s"
                           " --progress %s%s\n",
                           backend_name.c_str(), preset.c_str(),
                           pmode_name.c_str(), t.describe().c_str(),
                           static_cast<unsigned long long>(seed),
                           scheme_name.c_str(), timed ? "on" : "off",
                           preset.c_str(), o.msgs, o.bcasts, o.epochs,
                           backend_name.c_str(), pmode_name.c_str(),
                           flow_flags.c_str());
              for (const auto& v : violations) {
                std::fprintf(stderr, "     %s\n", v.c_str());
              }
            }
          }
        }
      }
    }
  }

  if (tsession != nullptr) {
    telemetry::set_global(nullptr);
    if (!o.trace_out.empty()) {
      if (tsession->write_chrome_trace(o.trace_out)) {
        std::fprintf(stderr, "stress_ygm: wrote Chrome trace to %s\n",
                     o.trace_out.c_str());
      } else {
        std::fprintf(stderr, "stress_ygm: FAILED to write %s\n",
                     o.trace_out.c_str());
      }
    }
  }

  std::printf("stress_ygm: %llu trials on %s, %llu failed\n",
              static_cast<unsigned long long>(trials), backend_name.c_str(),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
