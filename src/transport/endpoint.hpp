// The transport substrate interface: what comm and the runtime need from a
// communication backend, and nothing more.
//
// One `endpoint` object per rank per run. The base class owns everything
// backend-independent: the send-side statistics, and the receive side — a
// mail_slot matching engine driven by one pump-then-match loop for every
// backend. A backend supplies four hooks (docs/TRANSPORT.md):
//
//   * send()        how bytes leave. Eager but *bounded*: the payload is
//                   framed and either delivered (inproc) or queued toward
//                   the peer. Each backend bounds its outbound bytes: the
//                   socket backend at outq_cap_bytes() (YGM_OUTQ_CAP_BYTES,
//                   0 disables) blocks acceptance until the peer drains,
//                   and the shm backend blocks the same way when the
//                   pair's fixed ring is full (both pump their own receive
//                   side meanwhile, so two mutually-flooding ranks cannot
//                   deadlock); the inproc backend applies a bounded wait
//                   on the destination slot's queued bytes at the cap. The
//                   payload vector is taken by value and recycled through
//                   core::buffer_pool when the bytes are off this rank's
//                   hands, so the zero-copy packet discipline survives the
//                   seam.
//   * pump()        how arrived bytes reach the slot, without blocking.
//   * wait()        how the backend sleeps a *bounded* interval for more,
//                   after a blocking receive or probe failed to match. Every
//                   blocking transport wait is this one hook, so an abort is
//                   noticed in bounded time.
//   * abort_world() how a failing rank poisons the rest of the world.
//
// Per-(source, context) delivery order is FIFO (MPI non-overtaking);
// cross-source order is unspecified. Matching and chaos semantics are
// mail_slot's, so a chaos seed reproduces the same fault pattern on every
// backend. Collectives are not the transport's business: mpisim::comm
// builds them from point-to-point messages.
//
// Backends today: transport/inproc/ (threads as ranks, one process),
// transport/socket/ (one process per rank over Unix-domain sockets), and
// transport/shm/ (one process per rank over shared-memory SPSC rings).
// Selection is a runtime choice: ygm::launch takes a backend field
// (run_options::backend) and defaults to the YGM_TRANSPORT environment
// variable.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

#include "transport/envelope.hpp"
#include "transport/mail_slot.hpp"
#include "transport/types.hpp"

namespace ygm::transport {

enum class backend_kind {
  inproc,  ///< threads as ranks inside one process (the original simulator)
  socket,  ///< one OS process per rank over Unix-domain sockets
  shm,     ///< one OS process per rank over shared-memory SPSC rings
};

std::string_view to_string(backend_kind k) noexcept;

/// Parse a backend name ("inproc" | "socket" | "shm"); nullopt on anything
/// else.
std::optional<backend_kind> backend_from_name(std::string_view name) noexcept;

/// The backend named by YGM_TRANSPORT, defaulting to inproc when the
/// variable is unset or empty. Throws ygm::error on an unknown name (a typo
/// silently falling back to inproc would fake multi-process coverage).
backend_kind backend_from_env();

/// Per-peer outbound byte cap of the socket and inproc backends, the
/// transport-layer floor under the mailbox credit budget
/// (docs/BACKPRESSURE.md); shm is bounded by its rings instead.
/// Resolution: launch override (run_options::outq_cap_bytes via
/// set_outq_cap_bytes) > YGM_OUTQ_CAP_BYTES > 4 MiB default; 0 disables
/// the cap and restores the historical unbounded-queue behaviour.
std::size_t outq_cap_bytes() noexcept;

/// Override the cap process-wide (launch plumbing; set before worlds come
/// up so forked socket children inherit it).
void set_outq_cap_bytes(std::size_t cap) noexcept;

/// Per-endpoint transport counters, published into the owning rank's
/// telemetry lane at endpoint teardown under "transport.<backend>.*" (plus
/// the slot's probe counters — see mail_slot::probe_stats). Backends may
/// extend the set (the socket backend adds wire.* counters). Atomic
/// (relaxed — they are counters, not synchronization) because the progress
/// engine posts through the same endpoint rank threads post through.
struct endpoint_stats {
  std::atomic<std::uint64_t> posts{0};  ///< envelopes posted (self included)
  std::atomic<std::uint64_t> post_bytes{0};  ///< payload bytes posted
};

/// Seconds on CLOCK_MONOTONIC: the clock behind wtime() and the backends'
/// handshake and teardown deadlines.
double monotonic_seconds() noexcept;

class endpoint {
 public:
  virtual ~endpoint() = default;

  backend_kind kind() const noexcept { return kind_; }
  int world_rank() const noexcept { return rank_; }
  int world_size() const noexcept { return nranks_; }

  /// Seconds since this world's transport came up (MPI_Wtime deltas).
  double wtime() const { return monotonic_seconds() - epoch_; }

  /// Frame-and-send toward a world rank, with stats. dest == world_rank()
  /// is valid and loops back into this rank's own slot.
  void post(int dest, envelope&& e);

  // ------------------------------------------------- receive side (own slot)
  //
  // src is a *group* rank as stored in envelope::src (or any_source); the
  // endpoint only matches, it does not translate ranks.

  /// Blocking matched receive; throws ygm::error once the world aborts.
  envelope recv_match(int src, int tag, std::uint64_t ctx);
  std::optional<envelope> try_recv_match(int src, int tag, std::uint64_t ctx);
  /// Nonblocking probe; the one operation chaos may turn into a false
  /// negative.
  std::optional<status> iprobe(int src, int tag, std::uint64_t ctx);
  /// Blocking probe (miss-immune, like recv).
  status probe(int src, int tag, std::uint64_t ctx);
  /// Queued unreceived messages on this rank, across all contexts.
  std::size_t pending();

  /// Donated progress: called from the progress engine thread while ranks
  /// compute. One pump() that never waits for the rank's own I/O lock;
  /// returns true if any bytes moved.
  bool progress_hook() { return pump(/*from_engine=*/true); }

  /// Poison the world: every rank blocked in transport wakes with
  /// ygm::error. Called when a rank function throws so the rest of the
  /// world does not deadlock.
  virtual void abort_world() = 0;

 protected:
  /// `slot` is this rank's receive slot; it must outlive the endpoint's
  /// use of it (a backend may pass a member it owns).
  endpoint(backend_kind kind, int rank, int nranks, mail_slot& slot)
      : rank_(rank), nranks_(nranks), slot_(&slot), kind_(kind) {}

  /// The lock a pump takes on a backend's I/O state: the rank blocks for
  /// it; the engine only tries, so it never stalls the rank mid-operation.
  static std::unique_lock<std::mutex> pump_lock(std::mutex& io,
                                                bool from_engine) {
    if (from_engine) return std::unique_lock(io, std::try_to_lock);
    return std::unique_lock(io);
  }

  /// Fold stats_ + the slot's probe counters into this thread's telemetry
  /// lane under "transport.<backend>." — backends call this from their
  /// destructor, on the rank's own thread, before the rank lane unbinds.
  void publish_stats() const;

  const int rank_;
  const int nranks_;
  mail_slot* const slot_;
  /// monotonic_seconds() at which wtime() reads zero. Backends restart it
  /// once their world is up.
  double epoch_ = monotonic_seconds();

 private:
  // ------------------------------------------------------- backend hooks

  /// Move one envelope toward `dest` (world rank, possibly this rank).
  virtual void send(int dest, envelope&& e) = 0;

  /// Move bytes that have arrived into the slot (and push queued outbound
  /// bytes) without blocking. With `from_engine` set the caller is the
  /// progress engine: skip the pass rather than wait for the rank. Must be
  /// safe to call concurrently with the rank's own endpoint calls. Returns
  /// true if any bytes moved.
  virtual bool pump(bool from_engine) = 0;

  /// A blocking receive or probe found no match: wait, for a bounded
  /// interval, for something that could change that (new bytes, an abort,
  /// or — with miss.delayed — just time for a chaos delay to age). The
  /// receive loop then matches again. Throws when no message can ever
  /// arrive.
  virtual void wait(const match_miss& miss) = 0;

  const backend_kind kind_;
  endpoint_stats stats_;
};

}  // namespace ygm::transport
