// ygm::launch — the one way to start ranks, like `mpirun -n <nranks>`.
//
// One options struct and one entry point configure a run:
//
//   ygm::launch({.nranks = 8, .progress_mode = ygm::progress::mode::engine},
//               [](ygm::mpisim::comm& c) { ... });
//
// Configuration precedence — THE one place it is defined (the docs point
// here). launch() resolves every field once, at entry, and hands each value
// to the code that uses it:
//
//   explicit run_options field  >  YGM_* environment variable  >  default
//
//   field            env                 syntax             default
//   ---------------  ------------------  -----------------  ---------------
//   backend          YGM_TRANSPORT       inproc|socket|shm  inproc
//   chaos            YGM_CHAOS           light|heavy[:N]    off
//                    YGM_CHAOS_*         number (1)
//   progress_mode    YGM_PROGRESS        polling|engine     polling
//   trace_sample     YGM_TRACE_SAMPLE    number (2)         0 (tracing off)
//   virtual_network  (none)                                 untimed
//   credit_bytes     YGM_CREDIT_BYTES    decimal bytes      1 MiB (3)
//   outq_cap_bytes   YGM_OUTQ_CAP_BYTES  decimal bytes      4 MiB (3)
//   sample_ms        YGM_SAMPLE_MS       integer ms >= 0    100 ms (3)
//   statusz          YGM_STATUSZ         0|1                off
//
//   (1) YGM_CHAOS_SEED, _MAX_DELAY_TICKS and _MAX_STALL_US take an
//       unsigned integer (decimal, 0x-hex or 0-octal), as does the
//       preset's seed N; YGM_CHAOS_DELAY_PROB, _IPROBE_MISS_PROB and
//       _STALL_PROB take a number. They are read only when YGM_CHAOS is
//       not set.
//   (2) Read leniently, once, at static initialisation
//       (telemetry/causal.cpp), where a throw would need a design of its
//       own, and clamped to [0, 1]. YGM_STALL_TIMEOUT_MS and
//       YGM_POSTMORTEM_OUT keep that start-up path too; they configure the
//       stall watchdog, not a run.
//   (3) 0 turns it off. credit_bytes is per destination mailbox;
//       outq_cap_bytes is per peer, on socket and inproc only; sample_ms is
//       the live sampler's period. statusz is a per-process UDS endpoint.
//
// An unset or empty variable is not set. Any other value must parse as a
// whole in its syntax (common/env.hpp): a malformed one, such as
// YGM_CHAOS=hevy:7 or YGM_SAMPLE_MS=1OO, fails the launch with a ygm::error
// naming the variable and its text.
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

/// The knobs of the table above as launch() resolved them at entry, except
/// trace_sample (the causal trace rate stays process-wide): the one
/// launch-scoped record. launch() hands its values to the code that uses
/// them; comm_world's constructor reads credit_bytes and virtual_network
/// from it, so every world built during a timed launch is timed.
struct resolved_run {
  transport::backend_kind backend;
  std::optional<mpisim::chaos_config> chaos;
  bool engine;
  std::size_t credit_bytes;
  std::size_t outq_cap_bytes;
  int sample_ms;
  bool statusz;
  std::optional<net::network_params> virtual_network;
};

/// The running launch's record; nullptr outside a launch. Set before rank
/// threads spawn or children fork and restored after the run, so it is
/// read-only while ranks run.
const resolved_run* current_run() noexcept;

}  // namespace detail
}  // namespace ygm
