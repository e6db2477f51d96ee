// ygm::launch — the one way to start ranks, like `mpirun -n <nranks>`.
//
// One options struct and one entry point configure a run:
//
//   ygm::launch({.nranks = 8, .progress_mode = ygm::progress::mode::engine},
//               [](ygm::mpisim::comm& c) { ... });
//
// Configuration precedence — THE one place it is defined (the docs point
// here):
//
//   explicit run_options field  >  YGM_* environment variable  >  default
//
//   field            env                 default
//   ---------------  ------------------  -----------------------------
//   backend          YGM_TRANSPORT       inproc
//   chaos            YGM_CHAOS*          off
//   progress_mode    YGM_PROGRESS        polling
//   trace_sample     YGM_TRACE_SAMPLE    0 (tracing off)
//   virtual_network  (none)              untimed
//   credit_bytes     YGM_CREDIT_BYTES    1 MiB per destination (0 = off)
//   outq_cap_bytes   YGM_OUTQ_CAP_BYTES  4 MiB per peer (0 = off;
//                                        socket and inproc only)
//   sample_ms        YGM_SAMPLE_MS       100 ms live sampler (0 = off)
//   statusz          YGM_STATUSZ         off (per-process UDS endpoint)
//
// (YGM_STALL_TIMEOUT_MS keeps its env-only path — it is a debugging
// deadman, not a run parameter.)
//
// Backends (src/transport/): `inproc` runs the ranks as threads of this
// process; `socket` and `shm` fork one OS process per rank
// (transport/proc/launch.hpp) over Unix-domain sockets or shared-memory
// rings.
//
// launch() also owns per-process service lifetime. In every OS process
// hosting rank bodies — the driver process on inproc, each forked child on
// socket and shm — it starts the progress engine (core/progress.hpp) when
// progress_mode resolves to engine, then the live-telemetry services
// (sampler, statusz), and stops them in reverse order after the ranks
// finish.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/progress.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/types.hpp"
#include "net/params.hpp"
#include "transport/endpoint.hpp"

namespace ygm {

/// Everything a run can be configured with. Default-constructed options
/// defer every knob to its YGM_* variable: inproc unless YGM_TRANSPORT says
/// otherwise, chaos from YGM_CHAOS*, polling progress unless YGM_PROGRESS
/// says otherwise, trace sampling from YGM_TRACE_SAMPLE, untimed. Every
/// field has a default member initializer, so a designated initializer
/// (`{.nranks = 4, .chaos = cfg}`) names only the fields it sets.
struct run_options {
  int nranks = 1;

  /// Transport backend; nullopt defers to YGM_TRANSPORT (default inproc).
  std::optional<transport::backend_kind> backend{};

  /// Fault injection; nullopt defers to YGM_CHAOS* (docs/CHAOS.md).
  std::optional<mpisim::chaos_config> chaos{};

  /// Process-per-rank backends (socket, shm) only: rendezvous directory
  /// ("" = fresh mkdtemp under $TMPDIR, removed after the run). The shm
  /// backend also derives its segment names from the directory's basename.
  std::string socket_dir{};

  /// Progress mode; nullopt defers to YGM_PROGRESS (default polling).
  /// `engine` starts one progress thread per OS process hosting ranks; its
  /// idle policy and deferred-delivery ring size are fixed constants
  /// (docs/PROGRESS.md).
  std::optional<progress::mode> progress_mode{};

  /// Causal-trace sample rate in [0, 1]; nullopt defers to YGM_TRACE_SAMPLE
  /// (default 0). Applied for the duration of the run, restored after.
  std::optional<double> trace_sample{};

  /// Conservative virtual-time network model, attached to every comm_world
  /// constructed during the run (identically on all ranks, which is exactly
  /// the attach_virtual_network contract). Timed worlds never receive
  /// engine help — the virtual clock is rank-thread state.
  std::optional<net::network_params> virtual_network{};

  /// Per-destination mailbox credit budget in bytes (flow control,
  /// docs/BACKPRESSURE.md); nullopt defers to YGM_CREDIT_BYTES (default
  /// 1 MiB). 0 disables credit gating. Mailboxes clamp the effective budget
  /// to at least twice their flush capacity so acks stay live.
  std::optional<std::size_t> credit_bytes{};

  /// Per-peer outbound byte cap enforced by the socket and inproc
  /// backends beneath the credit budget; nullopt defers to
  /// YGM_OUTQ_CAP_BYTES (default 4 MiB). 0 disables the cap. The shm
  /// backend ignores it: its fixed per-pair ring is its transport bound.
  std::optional<std::size_t> outq_cap_bytes{};

  /// Live-telemetry sampling period in milliseconds (docs/TELEMETRY.md
  /// §Live telemetry); -1 defers to YGM_SAMPLE_MS (default 100). 0 turns
  /// the time-series sampler off. With the progress engine on, sampling
  /// rides the engine thread; otherwise a dedicated low-rate thread runs
  /// per OS process hosting ranks.
  int sample_ms = -1;

  /// Per-process introspection endpoint (a Unix-domain socket answering
  /// metrics/series/latency/health as JSON, see tools/ygm_top); -1 defers
  /// to YGM_STATUSZ (default off), 0 forces off, 1 forces on.
  int statusz = -1;
};

/// Run `fn(world_comm)` on opts.nranks ranks. Blocks until every rank
/// returns.
///
/// If any rank throws, the world is aborted: ranks blocked in communication
/// wake with ygm::error, every rank is joined/reaped, and the first rank's
/// exception (process-per-rank backends: its message) is rethrown here, so
/// a failing test cannot deadlock.
void launch(const run_options& opts,
            const std::function<void(mpisim::comm&)>& fn);

/// As launch(), for rank functions returning a byte blob; returns one blob
/// per rank, ordered by rank. This is the cross-backend result channel: on
/// inproc the blobs are moved across threads, on socket and shm they are
/// shipped over the result pipe — callers serialize with ygm::ser and
/// cannot rely on shared memory with the rank bodies.
std::vector<std::vector<std::byte>> launch_collect(
    const run_options& opts,
    const std::function<std::vector<std::byte>(mpisim::comm&)>& fn);

namespace detail {

/// The launch-scoped default virtual network (nullopt outside a launch with
/// run_options::virtual_network set). comm_world's constructor consults
/// this so every world built during a timed launch is timed. Set before
/// rank threads spawn / children fork; read-only during the run.
const std::optional<net::network_params>& launch_virtual_network() noexcept;

/// The launch-scoped credit-budget override (nullopt outside a launch with
/// run_options::credit_bytes set). comm_world's constructor consults this,
/// then YGM_CREDIT_BYTES, then the 1 MiB default. Same set-before-spawn /
/// fork-inheritance discipline as launch_virtual_network.
const std::optional<std::size_t>& launch_credit_bytes() noexcept;

}  // namespace detail
}  // namespace ygm
