#include "core/launch.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/inproc/fabric.hpp"
#include "transport/proc/launch.hpp"

namespace ygm {

namespace {

using rank_results = std::vector<std::vector<std::byte>>;
using rank_fn = std::function<std::vector<std::byte>(mpisim::comm&)>;

// Launch-scoped process globals. Set on the driver thread before rank
// threads spawn (inproc) or children fork (socket, shm) and restored after
// the run — every backend therefore sees a stable value for the whole run
// without synchronization.
std::optional<net::network_params> g_launch_vnet;
std::optional<std::size_t> g_launch_credit_bytes;

struct scoped_run_defaults {
  explicit scoped_run_defaults(const run_options& opts)
      : prev_sample_(telemetry::causal::sample_rate()),
        prev_outq_cap_(transport::outq_cap_bytes()),
        prev_sample_ms_(telemetry::live::sample_ms_override()),
        prev_statusz_(telemetry::live::statusz_override()) {
    if (opts.virtual_network) g_launch_vnet = *opts.virtual_network;
    if (opts.trace_sample) {
      YGM_CHECK(*opts.trace_sample >= 0.0 && *opts.trace_sample <= 1.0,
                "run_options::trace_sample must be in [0, 1]");
      telemetry::causal::set_sample_rate(*opts.trace_sample);
    }
    if (opts.credit_bytes) g_launch_credit_bytes = *opts.credit_bytes;
    if (opts.outq_cap_bytes) transport::set_outq_cap_bytes(*opts.outq_cap_bytes);
    if (opts.sample_ms >= 0) telemetry::live::set_sample_ms_override(opts.sample_ms);
    if (opts.statusz >= 0) telemetry::live::set_statusz_override(opts.statusz);
  }
  ~scoped_run_defaults() {
    g_launch_vnet.reset();
    g_launch_credit_bytes.reset();
    telemetry::causal::set_sample_rate(prev_sample_);
    transport::set_outq_cap_bytes(prev_outq_cap_);
    telemetry::live::set_sample_ms_override(prev_sample_ms_);
    telemetry::live::set_statusz_override(prev_statusz_);
  }

  double prev_sample_;
  std::size_t prev_outq_cap_;
  int prev_sample_ms_;
  int prev_statusz_;
};

/// The per-process services of one run, held while the process's rank
/// bodies execute. The progress engine (engine mode only) comes up first so
/// the live sampler can detect an engine driver and skip its own thread;
/// members are destroyed in reverse, so the sampler stops before its engine
/// driver does.
class host_services {
 public:
  host_services(bool engine, int telemetry_world) {
    if (engine) engine_.emplace(telemetry_world);
    live_ = telemetry::live::make_process_services();
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

rank_results run_inproc(
    int nranks, const std::optional<mpisim::chaos_config>& chaos,
    bool engine, const rank_fn& fn) {
  transport::inproc::fabric fab(nranks);
  if (chaos && chaos->enabled()) fab.set_chaos(*chaos);

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
    host_services services(engine, tworld);
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

/// The process-per-rank backends: proc::launch owns forking, rendezvous,
/// telemetry lane shipping and error propagation; the body here runs in
/// each forked child, so the child starts its own services (an engine
/// thread would not survive the fork from the parent). The child's engine
/// records onto a lane it adds to the rank's telemetry world, which ships
/// back to the parent with the rank's lane.
rank_results run_forked(
    transport::backend_kind backend, const run_options& opts,
    const std::optional<mpisim::chaos_config>& chaos, bool engine,
    const rank_fn& fn) {
  return transport::proc::launch(
      backend, opts.nranks, chaos, opts.socket_dir,
      [&](transport::endpoint& ep) {
        const telemetry::recorder* lane = telemetry::tls();
        host_services services(engine, lane != nullptr ? lane->world() : -1);
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
  scoped_run_defaults defaults(opts);
  YGM_CHECK(opts.nranks > 0, "launch() requires a positive rank count");

  const transport::backend_kind backend =
      opts.backend ? *opts.backend : transport::backend_from_env();
  // Environment-driven chaos lets the whole suite be rerun under fault
  // injection without touching a call site; an explicit config wins.
  const std::optional<mpisim::chaos_config> chaos =
      opts.chaos ? opts.chaos : mpisim::chaos_config::from_env();
  const progress::mode pmode =
      opts.progress_mode ? *opts.progress_mode : progress::mode_from_env();
  const bool engine = pmode == progress::mode::engine;

  if (backend == transport::backend_kind::inproc) {
    return run_inproc(opts.nranks, chaos, engine, fn);
  }
  return run_forked(backend, opts, chaos, engine, fn);
}

namespace detail {

const std::optional<net::network_params>& launch_virtual_network() noexcept {
  return g_launch_vnet;
}

const std::optional<std::size_t>& launch_credit_bytes() noexcept {
  return g_launch_credit_bytes;
}

}  // namespace detail
}  // namespace ygm
