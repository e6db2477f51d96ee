// Launch helper for the process-per-rank transport backends (socket, shm):
// build the world, fork one OS process per rank into it, and collect
// per-rank results and telemetry back in the parent — the part of mpirun
// that connects every rank before any user code runs.
//
// World set-up: before its first fork the launcher builds everything the
// ranks share. For shm it creates every rank's segment as unnamed shared
// memory (shm::world: memfd, sized, header and ring controls initialized)
// and keeps each header mapped; for sockets it binds and listens on every
// rank's <dir>/r<rank>.sock (socket::world). A child joins from the
// descriptors it inherited: it maps its shm world, or connects to listeners
// that are already up, so no rank polls or sleeps waiting for a peer, and
// with no segment name nothing can leak into /dev/shm. After the last fork
// the launcher closes its copies of the descriptors. A rank that dies
// without unwinding (signal, _exit) never poisons its shm peers, so the
// launcher does it through its header mappings (shm::world::poison) as soon
// as the rank's result pipe closes without a report; socket peers see the
// dead rank's sockets close.
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
/// rank. `outq_cap` is each socket endpoint's outq_cap() (shm ignores it).
/// `dir_hint` names the directory that holds the socket files and every
/// child's statusz endpoint, so live tooling discovers the whole job from
/// it ("" = fresh mkdtemp under $TMPDIR — ygm-sock-XXXXXX or
/// ygm-shm-XXXXXX — removed afterwards). Throws ygm::error carrying the
/// first failing rank's message if any rank fails.
std::vector<std::vector<std::byte>> launch(
    backend_kind backend, int nranks, const std::optional<chaos_config>& chaos,
    std::size_t outq_cap, const std::string& dir_hint,
    const std::function<std::vector<std::byte>(transport::endpoint&)>& body);

}  // namespace ygm::transport::proc
