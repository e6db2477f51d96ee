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
// One optional hook serves the mailbox's drain: take() matches any source
// on one (tag, ctx) and removes the match in one step, and lend() lets a
// backend hand that match over where it lies instead of copying it into
// the slot (shm lends ring frames; docs/TRANSPORT.md, "Receive-side
// contract").
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
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

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

/// Record the calling process as the launcher of the ranks it is about to
/// fork (proc::launch calls this before its first fork; children inherit
/// it).
void note_launcher() noexcept;

/// In a forked rank, throw ygm::error("launcher (pid N) died") once its
/// launcher is gone (the rank was reparented), so the rank unwinds, poisons
/// its peers and frees its resources instead of outliving the job. A no-op
/// in the launcher itself and in processes no launcher forked. The socket
/// and shm backends call it from every bounded wait.
void check_launcher_alive();

/// A frame a backend hands to take() where it lies, read-only. The backend
/// may move it: before any blocking wait it copies the bytes out and frees
/// its receive buffer, so a holder re-reads bytes() after anything that
/// can block (docs/TRANSPORT.md, "Receive-side contract").
class lent_frame {
 public:
  int source() const noexcept { return src_; }
  std::span<const std::byte> bytes() const noexcept { return {data_, size_}; }

  /// The holder is done with the frame: the backend frees its bytes.
  virtual void give_back() noexcept = 0;

 protected:
  lent_frame() = default;
  ~lent_frame() = default;

  int src_ = -1;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  /// Handed out by take() and not yet given back.
  bool on_loan_ = false;

  friend class endpoint;
};

/// One message take() hands out: its source and payload, owned (a pooled
/// vector) or a frame the backend lends in place. Destroying the packet
/// recycles the vector or gives the frame back.
class packet {
 public:
  packet(int src, std::vector<std::byte>&& payload) noexcept
      : src_(src), owned_(std::move(payload)) {}
  explicit packet(lent_frame& lent) noexcept
      : src_(lent.source()), lent_(&lent) {}
  packet(packet&& o) noexcept
      : src_(o.src_),
        owned_(std::move(o.owned_)),
        lent_(std::exchange(o.lent_, nullptr)) {}
  packet& operator=(packet&&) = delete;
  ~packet();

  int source() const noexcept { return src_; }
  /// The payload. Re-read it after anything that can block: a lent frame
  /// is copied out of the backend's buffer before any blocking wait.
  std::span<const std::byte> bytes() const noexcept {
    return lent_ != nullptr ? lent_->bytes()
                            : std::span<const std::byte>(owned_);
  }
  bool lent() const noexcept { return lent_ != nullptr; }

 private:
  int src_;
  std::vector<std::byte> owned_;
  lent_frame* lent_ = nullptr;
};

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
  /// Queued unreceived messages on this rank, across all contexts. Frames
  /// a backend keeps back for take() (see lend()) are not counted.
  std::size_t pending();

  /// Nonblocking receive of the first visible message on (tag, ctx) from
  /// any source: the iprobe and receive of the match in one step
  /// (mail_slot::take, same chaos draws). The packet is owned, or lent in
  /// place where the backend can.
  std::optional<packet> take(int tag, std::uint64_t ctx);

  /// A progress engine drives this endpoint from its own thread too: lend
  /// nothing from now on, since a lent frame's bytes must never move under
  /// a reader on another thread. Called before any traffic; sticky.
  void disable_lending() noexcept { lending_ = false; }

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

  /// Whether take() may receive lent frames (no progress engine attached).
  bool lending() const noexcept { return lending_; }

  /// Mark a frame handed out by take() as on loan / given back.
  static void set_on_loan(lent_frame& f, bool on) noexcept { f.on_loan_ = on; }
  static bool on_loan(const lent_frame& f) noexcept { return f.on_loan_; }

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

  /// take()'s pump: move arrived bytes into the slot without blocking, as
  /// pump(false) does — except that a backend that can lend keeps back a
  /// frame matching (tag, ctx), admits it (mail_slot::admit) and returns it
  /// when it is lendable. The frame stays offered across calls until take()
  /// hands it out or a blocking wait copies it into the slot. Default:
  /// pump, lend nothing.
  virtual lent_frame* lend(int tag, std::uint64_t ctx);

  const backend_kind kind_;
  endpoint_stats stats_;
  bool lending_ = true;
};

}  // namespace ygm::transport
