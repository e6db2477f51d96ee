// Rank-0 rendezvous/launch helper for the process-per-rank transport
// backends (socket, shm): fork one OS process per rank, rendezvous them over
// a shared directory, and collect per-rank results and telemetry back in the
// parent. The two backends differ only in the endpoint a child constructs
// over the rendezvous directory and in what the parent sweeps up afterwards:
// socket files live inside the directory; the shm backend derives its
// segment names from the directory's basename and the parent shm_unlinks
// "/<token>.r<i>" for every rank after reaping, because a child that died
// abnormally (signal, _exit mid-run) never reaches its endpoint destructor.
// Such a child also never poisons its shm peers, so the parent does it for
// the child (shm::poison_world) as soon as its result pipe closes without
// a report.
//
// Result channel: one pipe per rank. A child runs the rank body, then ships
// a single framed blob — status, error text, the body's result bytes, and
// its telemetry lane snapshots — and _exits without returning through the
// parent's stack. The parent drains every pipe to EOF (before waiting, so a
// child blocked on a full pipe cannot deadlock the join), reaps the
// children, absorbs the telemetry lanes into the installed session, and
// rethrows the first real rank error.
//
// Telemetry across the fork: the parent opens the world's lane group
// *before* forking, so every child inherits a session whose (world, rank)
// indices agree with the parent's; a child records into its copy-on-write
// recorder, serializes the lane (names, metrics, retained ring events) into
// its result blob, and the parent splices it into the original recorder —
// name ids re-interned, counters summed, gauges maxed, histograms merged.
// A lane the child added to its world (its progress engine's) ships after
// the rank's lane and lands in a new lane of the same world in the parent.
// The session epoch is a steady_clock point captured pre-fork, so child
// timestamps land on the parent's timeline unadjusted.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"

namespace ygm::transport::proc {

/// Run `body` on `nranks` forked processes connected by `backend`'s
/// endpoint (socket or shm); returns one result blob per rank, ordered by
/// rank. `dir_hint` names the rendezvous directory ("" = fresh mkdtemp
/// under $TMPDIR — ygm-sock-XXXXXX or ygm-shm-XXXXXX — removed afterwards).
/// The directory doubles as the statusz endpoint directory for every child,
/// so live tooling discovers the whole job from it. Throws ygm::error
/// carrying the first failing rank's message if any rank fails.
std::vector<std::vector<std::byte>> launch(
    backend_kind backend, int nranks, const std::optional<chaos_config>& chaos,
    const std::string& dir_hint,
    const std::function<std::vector<std::byte>(transport::endpoint&)>& body);

}  // namespace ygm::transport::proc
