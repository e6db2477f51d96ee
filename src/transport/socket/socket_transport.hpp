// Backend #2: one OS process per rank over Unix-domain stream sockets.
//
// Topology: full mesh. Each rank binds and listens on <dir>/r<rank>.sock,
// connects to every lower rank (retrying while the peer's socket file is
// still appearing), and accepts one connection from every higher rank; a
// hello frame identifies the connecting peer. After the handshake every
// per-peer fd goes nonblocking and all I/O runs through a single-threaded
// poll(2) progress pump — the per-peer channel + explicit-progress structure
// of the PGAS async-progress designs (arXiv 1609.08574).
//
// Wire format: length-prefixed frames, header {kind, payload_len, src, tag,
// ctx} followed by the payload bytes. Sends are writev-style gather I/O
// (sendmsg with a two-entry iovec) so header and payload leave in one
// syscall without a copy into a staging buffer: the pooled packet vector
// handed to post() by value IS the iovec base, and it is released back to
// core::buffer_pool when the wire accepts the last byte — PR 5's zero-copy
// discipline across the process boundary. A send the kernel won't accept
// whole parks the remainder on the peer's outbound queue, which is
// *bounded*: at outq_cap() the posting rank stops accepting new data frames
// and pumps the wire (POLLOUT wakes it when the peer drains, and the pump
// keeps reading inbound frames meanwhile, so two mutually-flooding ranks
// drain each other instead of deadlocking) until the queue has room.
// Control frames (hello/abort/fin) bypass the cap so teardown and failure
// propagation can never be wedged behind data.
//
// The receive side is transport::endpoint's shared loop over this rank's
// own mail_slot: pump() delivers completed data frames into the slot, and
// wait() polls the peer sockets for at most 10 ms (1 ms while a
// chaos-delayed match is maturing), reading whatever arrives.
//
// Failure: an uncaught exception in a rank turns into an abort frame to
// every peer plus a poisoned slot; peers reading the frame (or seeing a
// pre-fin EOF) poison theirs, so the whole world unblocks with ygm::error
// instead of deadlocking — the multi-process analogue of fabric::abort_all.
#pragma once

#include <poll.h>

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"
#include "transport/mail_slot.hpp"
#include "transport/wire.hpp"

namespace ygm::transport::socket {

class endpoint final : public transport::endpoint {
 public:
  /// Rendezvous under `dir` (every rank of the world passes the same
  /// directory) and connect the full mesh. Blocks until all peers are up or
  /// `handshake_timeout_s` elapses. `chaos` installs fault injection on the
  /// receive slot (nullptr: none); `outq_cap` bounds each peer's outbound
  /// queue (0: no cap).
  endpoint(const std::string& dir, int rank, int nranks,
           const chaos_config* chaos, std::size_t outq_cap);
  ~endpoint() override;

  void abort_world() override;

  /// Seconds a rank will wait for the rest of the world to rendezvous.
  static constexpr double handshake_timeout_s = 30.0;

 private:
  enum class frame_kind : std::uint32_t {
    hello = 1,  ///< handshake: src names the connecting rank
    data = 2,   ///< one envelope
    abort = 3,  ///< sender's world is poisoned; poison yours
    fin = 4,    ///< orderly end-of-stream: sender will write nothing more
  };

  /// One queued outbound frame: unsent header bytes + payload, with a
  /// cursor over the concatenation.
  struct out_msg {
    wire_header hdr;
    std::vector<std::byte> payload;
    std::size_t sent = 0;  ///< bytes of (header + payload) already on the wire
  };

  /// Per-peer connection state (send queue + receive reassembly).
  struct peer_state {
    int fd = -1;
    std::deque<out_msg> outq;
    std::size_t outq_bytes = 0;  ///< header+payload bytes queued in outq
    bool fin_sent = false;
    bool fin_seen = false;  ///< peer sent fin, or EOF after fin
    bool eof = false;       ///< read side closed
    // Receive reassembly: header first, then payload.
    std::array<std::byte, sizeof(wire_header)> hdr_buf;
    std::size_t hdr_got = 0;
    wire_header hdr;
    std::vector<std::byte> payload;
    std::size_t payload_got = 0;
  };

  void send(int dest, envelope&& e) override;
  /// One nonblocking progress() pass; reports whether any wire bytes moved.
  bool pump(bool from_engine) override;
  void wait(const match_miss& miss) override;

  /// Pump the wire: flush outbound queues, read inbound frames into the
  /// slot. Waits up to timeout_ms for activity when nothing is immediately
  /// ready (0: strictly nonblocking).
  void progress(int timeout_ms);

  /// Try to push one frame (or the front of the queue) onto fd. Returns
  /// false when the kernel would block.
  bool flush_peer(peer_state& p);
  void read_peer(peer_state& p);
  void handle_frame(peer_state& p);

  /// Enqueue a control frame (hello/abort/fin) to one peer.
  void enqueue_control(peer_state& p, frame_kind k);

  void handshake(const std::string& dir, const chaos_config* chaos);
  void fail_peer(peer_state& p, const char* why);

  /// True when no peer can ever deliver another message (all fin/EOF and
  /// nothing mid-reassembly) — a blocked receive is then a deadlock, not a
  /// wait.
  bool all_peers_silent() const;

  /// Serializes all wire-touching state (peers_, pollfds_, counters)
  /// between the owning rank thread and the progress engine. Blocking
  /// operations lock per wait (with short poll timeouts) so the engine's
  /// posts are never starved for long; the engine itself only ever
  /// try-locks (pump). mail_slot stays internally synchronized.
  std::mutex io_mtx_;
  mail_slot own_slot_;  // the base class's slot_
  std::vector<peer_state> peers_;      // indexed by world rank; self unused
  std::vector<pollfd> pollfds_;  // scratch, rebuilt per progress()
  bool aborted_ = false;
  // wire-level counters, published with the endpoint stats at teardown
  std::uint64_t wire_tx_bytes_ = 0;
  std::uint64_t wire_rx_bytes_ = 0;
  std::uint64_t wire_sendmsg_calls_ = 0;
  std::uint64_t wire_partial_sends_ = 0;
  std::uint64_t outq_peak_bytes_ = 0;  ///< high-water mark across all peers
  std::uint64_t outq_stalls_ = 0;      ///< posts that hit the outbound cap
};

}  // namespace ygm::transport::socket
