#include "core/launch.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/inproc/fabric.hpp"
#include "transport/proc/launch.hpp"

namespace ygm {

namespace {

using rank_results = std::vector<std::vector<std::byte>>;
using rank_fn = std::function<std::vector<std::byte>(mpisim::comm&)>;
using detail::resolved_run;

/// Every run knob, resolved once at launch entry as launch.hpp's table
/// says: explicit run_options field > YGM_* variable > default.
resolved_run resolve(const run_options& o) {
  YGM_CHECK(!o.trace_sample ||
                (*o.trace_sample >= 0.0 && *o.trace_sample <= 1.0),
            "run_options::trace_sample must be in [0, 1]");
  const progress::mode mode =
      o.progress_mode ? *o.progress_mode : progress::mode_from_env();
  return {
      .backend = o.backend ? *o.backend : transport::backend_from_env(),
      .chaos = o.chaos ? o.chaos : mpisim::chaos_config::from_env(),
      .engine = mode == progress::mode::engine,
      .credit_bytes =
          o.credit_bytes
              ? *o.credit_bytes
              : env::bytes("YGM_CREDIT_BYTES").value_or(std::size_t{1} << 20),
      .outq_cap_bytes =
          o.outq_cap_bytes
              ? *o.outq_cap_bytes
              : env::bytes("YGM_OUTQ_CAP_BYTES").value_or(std::size_t{4} << 20),
      .sample_ms = o.sample_ms >= 0
                       ? o.sample_ms
                       : env::millis("YGM_SAMPLE_MS").value_or(100),
      .statusz = o.statusz >= 0 ? o.statusz != 0
                                : env::flag("YGM_STATUSZ").value_or(false),
      .virtual_network = o.virtual_network,
  };
}

// The running launch's record (nullptr outside a launch).
const resolved_run* g_run = nullptr;

/// The per-process services of one run, held while the process's rank
/// bodies execute. The progress engine (engine mode only) comes up first so
/// the live sampler can detect an engine driver and skip its own thread;
/// members are destroyed in reverse, so the sampler stops before its engine
/// driver does.
class host_services {
 public:
  host_services(const resolved_run& run, int telemetry_world) {
    if (run.engine) engine_.emplace(telemetry_world);
    live_ = telemetry::live::make_process_services(run.sample_ms, run.statusz);
  }

 private:
  std::optional<progress::engine_scope> engine_;
  std::shared_ptr<void> live_;
};

std::shared_ptr<const std::vector<int>> world_members(int nranks) {
  std::vector<int> m(static_cast<std::size_t>(nranks));
  std::iota(m.begin(), m.end(), 0);
  return std::make_shared<const std::vector<int>>(std::move(m));
}

rank_results run_inproc(int nranks, const resolved_run& run,
                        const rank_fn& fn) {
  transport::inproc::fabric fab(nranks, run.outq_cap_bytes);
  if (run.chaos && run.chaos->enabled()) fab.set_chaos(*run.chaos);

  // With a telemetry session installed, every rank thread records onto its
  // own (world, rank) lane; the top-level "rank.main" span covers the whole
  // rank function, so per-rank span coverage of wall time is complete by
  // construction.
  telemetry::session* const tsess = telemetry::global();
  const int tworld = tsess != nullptr ? tsess->begin_world(nranks) : -1;
  const auto members = world_members(nranks);

  std::mutex err_mtx;
  std::exception_ptr first_error;
  rank_results results(static_cast<std::size_t>(nranks));
  {
    // Services stop before the error is rethrown: a progress engine must
    // not outlive the fabric the rank endpoints lived on.
    host_services services(run, tworld);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r] {
        std::optional<telemetry::rank_scope> tscope;
        if (tsess != nullptr) tscope.emplace(*tsess, tworld, r);
        telemetry::span rank_span("rank.main");
        // The endpoint lives inside the span and the rank scope: its
        // destructor publishes transport counters onto this rank's lane.
        transport::inproc::endpoint ep(fab, r);
        mpisim::comm c(ep, members, r, transport::world_context,
                       transport::world_context + 1);
        try {
          results[static_cast<std::size_t>(r)] = fn(c);
        } catch (...) {
          {
            std::lock_guard lock(err_mtx);
            if (!first_error) first_error = std::current_exception();
          }
          ep.abort_world();
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

/// The process-per-rank backends: proc::launch owns the world's set-up,
/// forking, telemetry lane shipping and error propagation; the body here
/// runs in each forked child, so the child starts its own services (an
/// engine thread would not survive the fork from the parent). The child's
/// engine records onto a lane it adds to the rank's telemetry world, which
/// ships back to the parent with the rank's lane.
rank_results run_forked(const run_options& opts, const resolved_run& run,
                        const rank_fn& fn) {
  return transport::proc::launch(
      run.backend, opts.nranks, run.chaos, run.outq_cap_bytes,
      opts.socket_dir, [&](transport::endpoint& ep) {
        const telemetry::recorder* lane = telemetry::tls();
        host_services services(run, lane != nullptr ? lane->world() : -1);
        mpisim::comm c(ep, world_members(ep.world_size()), ep.world_rank(),
                       transport::world_context, transport::world_context + 1);
        return fn(c);
      });
}

}  // namespace

void launch(const run_options& opts,
            const std::function<void(mpisim::comm&)>& fn) {
  (void)launch_collect(opts, [&fn](mpisim::comm& c) {
    fn(c);
    return std::vector<std::byte>{};
  });
}

rank_results launch_collect(const run_options& opts, const rank_fn& fn) {
  YGM_CHECK(opts.nranks > 0, "launch() requires a positive rank count");
  const resolved_run run = resolve(opts);
  // The record and the causal trace rate are set on the driver thread before
  // rank threads spawn (inproc) or children fork (socket, shm) and restored
  // after the run, so every backend reads them without synchronization.
  struct restore {
    const resolved_run* record;
    double sample_rate;
    ~restore() {
      g_run = record;
      telemetry::causal::set_sample_rate(sample_rate);
    }
  } prev{std::exchange(g_run, &run), telemetry::causal::sample_rate()};
  if (opts.trace_sample) telemetry::causal::set_sample_rate(*opts.trace_sample);
  if (run.backend == transport::backend_kind::inproc) {
    return run_inproc(opts.nranks, run, fn);
  }
  return run_forked(opts, run, fn);
}

namespace detail {

const resolved_run* current_run() noexcept { return g_run; }

}  // namespace detail
}  // namespace ygm
