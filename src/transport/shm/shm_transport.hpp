// Backend #3: one OS process per rank over shared-memory SPSC rings.
//
// Topology: full mesh of bounded byte rings. Each rank owns ONE shm_open
// segment named "/<token>.r<rank>" (token = basename of the rendezvous
// directory) holding every ring INBOUND to it, an ordered byte stream of
// whole frames per producer rank. Layout: the seg_header, then one
// ring_ctrl per producer, then — from the first data_align boundary — one
// ring_bytes data area per producer, each page-aligned. A rank maps
// nranks segments — its own as the consumer, every peer's as a producer —
// and maps each inbound data area a second time, twice back to back
// (map_mirrored), so any frame of up to ring_bytes is contiguous to the
// consumer. Rendezvous is pure filesystem: the creator
// sizes and initializes its segment then release-stores a magic word;
// openers retry shm_open/fstat until the segment exists at full size and
// the magic is visible, under the same handshake deadline as the socket
// backend.
//
// Wire format: the frame header {kind, payload_len, src, tag, ctx} is
// byte-identical to the socket backend's, and every frame streams through
// the pair's ring. The producer waits for room for the header, stages it
// with as much payload as fits and publishes both with one release store,
// then sends the rest in chunks as the consumer frees room. A header is
// never split, so the consumer can trust any visible size, and a frame
// that fits goes out in one publish; a frame larger than the ring still
// passes. A consumer reads frames in one of two ways:
//
//   * lent: a fully published frame of at most ring_bytes that take()
//     asks for is handed out where it lies, a read-only span into the
//     mirrored ring; its ring bytes are freed when the packet is given
//     back. Bytes then cross the process boundary once, into the ring,
//     and the receiver's parse reads them there.
//   * copied: every other frame (other tags, chaos-delayed ones, frames
//     larger than the ring, anything a blocking wait drains) is appended
//     to a pooled buffer as it becomes readable and delivered into the
//     slot when its last byte lands.
//
// Receive-side contract (docs/TRANSPORT.md): a lent frame pins its ring,
// so before any blocking wait (wait, wait_for_space) the endpoint copies
// every lent frame into a pooled buffer and frees its ring bytes; the
// holder re-reads the packet's bytes after anything that can block. Only
// one frame is offered at a time and a pair lends one frame at a time.
// Nothing is lent while a progress engine shares the endpoint. A
// nonblocking pump, and a wait for ring space, leave the frames take()
// asks for (the last take's (tag, ctx)) at their ring heads instead of
// copying them; a wait for ring space still copies them out of a ring
// whose producer waits for room too. A frame's chaos delay is drawn at
// admission exactly as the slot draws it for deliver().
//
// Idle ranks park on futexes instead of spinning: a consumer with nothing
// readable publishes a parked flag and waits (bounded) on its segment's
// recv doorbell, which producers bump after publishing; a producer blocked
// on a full ring parks the same way on the ring's space doorbell, which the
// consumer bumps after freeing room. Waits are bounded (lost-wake
// insurance) and every loop re-checks the abort flag, so a crashed peer
// costs latency, never liveness.
//
// Backpressure: the ring's fixed capacity is the transport bound — a
// producer that cannot fit its next bytes stalls (pumping its own inbound
// rings meanwhile, so two mutually-flooding ranks drain each other instead
// of deadlocking). run_options::outq_cap_bytes does not apply here: its
// 4 MiB default exceeds all the ring bytes of a pair, and the mailbox
// credit budget is the end-to-end bound (docs/BACKPRESSURE.md).
//
// The receive side is transport::endpoint's shared loop over this rank's
// own mail_slot: pump() delivers completed frames into the slot, so all
// matching/chaos semantics come from the one engine and a chaos seed
// reproduces the same fault pattern on any backend; wait() pumps, then
// parks on the recv doorbell for at most 10 ms (1 ms while a chaos-delayed
// match is maturing).
//
// Failure: abort_world sets an aborted flag in every mapped segment and
// bumps every doorbell; peers notice on their next pump or park and poison
// their slots. Every bounded wait also checks that the launcher is alive
// (check_launcher_alive), so ranks of a killed launcher unwind, poison
// their peers and unlink their segments. A rank killed without unwinding cannot do that, so the
// launcher (transport/proc/launch.cpp) calls poison_world when a rank's
// result pipe closes without a report, and shm_unlinks every
// "/<token>.r<i>" after reaping children, so abnormal exits neither hang
// their peers nor leak /dev/shm space.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"
#include "transport/mail_slot.hpp"
#include "transport/shm/spsc_ring.hpp"
#include "transport/wire.hpp"

namespace ygm::transport::shm {

/// Ring capacity per pair (power of two); frames larger than the ring
/// still pass — they stream through in chunks.
inline constexpr std::size_t ring_bytes = 256 * 1024;

/// Alignment of the data areas in a segment: a multiple of every page size
/// a consumer may mirror-map them with.
inline constexpr std::size_t data_align = 64 * 1024;
static_assert(ring_bytes % data_align == 0);

/// Head of every segment. magic is release-stored LAST by the creator, so
/// an opener that acquire-loads it sees a fully initialized layout.
struct alignas(cache_line) seg_header {
  std::atomic<std::uint32_t> magic;
  std::uint32_t nranks;
  std::atomic<std::uint32_t> aborted;
  /// Doorbell the owning (consumer) rank parks on; every producer bumps it
  /// after publishing into any of this segment's rings.
  std::atomic<std::uint32_t> recv_seq;
  std::atomic<std::uint32_t> recv_parked;
};
static_assert(sizeof(seg_header) == cache_line);

inline constexpr std::uint32_t seg_magic = 0x79676d73;  // "ygms"

/// Offset of the first data area: past the header and one ring_ctrl per
/// producer, rounded up to data_align.
constexpr std::size_t data_offset(int nranks) {
  const std::size_t ctrl_end =
      sizeof(seg_header) + static_cast<std::size_t>(nranks) * sizeof(ring_ctrl);
  return (ctrl_end + data_align - 1) / data_align * data_align;
}

/// Segment byte size for a world of nranks (a ring per producer; the self
/// slot is unused but keeps indexing trivial).
constexpr std::size_t segment_bytes(int nranks) {
  return data_offset(nranks) + static_cast<std::size_t>(nranks) * ring_bytes;
}

/// "/<token>.r<rank>" — the shm_open name of one rank's inbound segment,
/// where token is the basename of the rendezvous directory. Exposed so the
/// launcher's orphan sweep and tests can reconstruct names.
std::string segment_name(const std::string& dir, int rank);

/// Poison the world rendezvoused under `dir` from outside it: leave the
/// abort marker in `dir`, then set the abort flag in every rank segment
/// that exists and ring its recv doorbell, so ranks parked on a dead peer
/// wake and fail. The launcher calls this when a rank's result pipe closes
/// without a report.
void poison_world(const std::string& dir, int nranks);

/// "<dir>/shm.aborted", the marker poison_world leaves. A rank whose
/// segment did not exist yet at the poison (it was still starting up, or
/// its header initialization overwrote the flag) finds the marker in its
/// rendezvous and fails at once. The launcher removes it after the run.
std::string abort_marker(const std::string& dir);

class endpoint final : public transport::endpoint {
 public:
  /// Rendezvous under `dir` (every rank of the world passes the same
  /// directory): create this rank's segment, then map every peer's. Blocks
  /// until all segments are up, a peer poisons this rank's segment (throws
  /// "world aborted"), or `handshake_timeout_s` elapses. `chaos` installs
  /// fault injection on the receive slot (nullptr: none).
  endpoint(const std::string& dir, int rank, int nranks,
           const chaos_config* chaos);
  ~endpoint() override;

  void abort_world() override;

  /// Seconds a rank will wait for the rest of the world to rendezvous.
  static constexpr double handshake_timeout_s = 30.0;

 private:
  /// The one frame kind: a header followed by its payload.
  static constexpr std::uint32_t data_frame = 2;

  /// One mapped segment (own or a peer's).
  struct segment {
    void* base = nullptr;
    std::size_t bytes = 0;
    seg_header* hdr = nullptr;
  };

  /// Producer-side view of the ring toward one peer.
  struct out_pair {
    ring_view ring;
    bool fin_sent = false;
  };

  /// Consumer-side view of one inbound ring, plus reassembly state: the
  /// pump never blocks mid-frame, so a partially-streamed payload parks
  /// here between passes (its size is the bytes received so far). As a
  /// lent_frame it is the pair's head frame while offered to take() or on
  /// loan: `lent_bytes` ring bytes stay pinned until it is given back, or
  /// until a blocking wait copies it into `evicted` and frees them.
  struct in_pair final : transport::lent_frame {
    endpoint* owner = nullptr;
    ring_view ring;
    std::byte* mirror = nullptr;  ///< the data area, mapped twice
    bool have_hdr = false;  ///< streaming hdr's frame into `payload`
    wire_header hdr{};      ///< the streamed, offered or lent frame's header
    std::vector<std::byte> payload;
    bool fin_seen = false;
    std::size_t lent_bytes = 0;   ///< pinned ring bytes (header + payload)
    std::uint64_t visible_at = 0;  ///< the offered frame's admission draw
    std::vector<std::byte> evicted;
    void point_at(int src, const std::byte* data, std::size_t n) noexcept {
      src_ = src;
      data_ = data;
      size_ = n;
    }
    void give_back() noexcept override { owner->give_back(*this); }
  };

  /// How far a pump pass goes with the frames take() asks for.
  enum class pump_mode {
    copy_all,  ///< copy every frame into the slot (wait, engine, teardown)
    hold,      ///< leave them at their ring heads (nonblocking pumps)
    relieve,   ///< hold, except in rings whose producer waits for room
               ///< (wait_for_space)
    offer,     ///< admit the first lendable one and offer it (take)
  };

  void send(int dest, envelope&& e) override;
  /// One nonblocking pump_inbound() pass; reports whether any bytes were
  /// consumed.
  bool pump(bool from_engine) override;
  void wait(const match_miss& miss) override;
  transport::lent_frame* lend(int tag, std::uint64_t ctx) override;

  /// Drain every inbound ring into the slot (strictly nonblocking), except
  /// what `mode` keeps back. Returns true if any bytes were consumed.
  bool pump_inbound(pump_mode mode);
  bool pump_pair(int src, in_pair& p, pump_mode mode);
  /// Whether a frame with this header is one take() asks for and could
  /// lend: the last take's (tag, ctx), and no larger than the ring.
  bool wanted(const wire_header& h) const noexcept;
  /// Copy the n payload bytes behind the head frame's header into a pooled
  /// buffer and free the frame's ring bytes.
  std::vector<std::byte> copy_head_frame(in_pair& p, std::size_t n);

  /// Copy the offered frame into the slot under its admission draw.
  /// Returns whether there was one.
  bool withdraw_offer();
  /// Copy every frame on loan out of its ring, freeing the ring bytes.
  void evict_loans();
  /// Before a blocking wait: evict_loans() and withdraw_offer(), so no ring
  /// stays pinned. Returns whether that delivered anything.
  bool unpin();
  /// Forget an offer take() has handed out (it is on loan now).
  void settle_offer() noexcept;
  void give_back(in_pair& p) noexcept;

  /// Park until this rank's recv doorbell rings or ~timeout_us elapses,
  /// Dekker-checked against the inbound rings so a concurrent publish is
  /// never slept through.
  void park_for_inbound(std::uint32_t timeout_us);

  /// Ring the recv doorbell of `dest`'s segment if its owner is parked.
  void ding_peer(int dest);

  /// Wait (bounded park) for `need` free bytes on the ring toward `dest`;
  /// pumps own inbound each pass and honours abort. Returns false on abort.
  bool wait_for_space(int dest, std::size_t need);

  void handshake(const std::string& dir, const chaos_config* chaos);
  void mark_aborted_locked();
  bool world_marked_aborted() const;
  bool all_peers_silent() const;
  void publish_outq_gauge() const;

  seg_header* own_hdr() const {
    return segments_[static_cast<std::size_t>(rank_)].hdr;
  }

  std::string seg_name_;  ///< own segment's shm name (for unlink)
  /// Serializes all ring-touching state between the owning rank thread and
  /// the progress engine: wait() locks once per park (with short park
  /// timeouts) so the engine's posts are never starved for long; the
  /// engine's pump only try-locks.
  std::mutex io_mtx_;
  mail_slot own_slot_;  // the base class's slot_
  std::vector<segment> segments_;  // indexed by world rank
  std::vector<out_pair> out_;      // toward each peer; self unused
  std::vector<in_pair> in_;        // from each peer; self unused
  bool aborted_ = false;
  // What take() asks for: set by its first call (until then nothing is
  // held back), and the frame offered to it, if any.
  bool have_key_ = false;
  int key_tag_ = 0;
  std::uint64_t key_ctx_ = 0;
  in_pair* offered_ = nullptr;
  int next_offer_ = 0;  ///< pair the next offer scan starts at (fairness)
  // ring-level counters, published with the endpoint stats at teardown
  std::uint64_t ring_tx_bytes_ = 0;
  std::uint64_t ring_rx_bytes_ = 0;
  std::uint64_t ring_full_stalls_ = 0;  ///< waits for ring space
  std::uint64_t outq_peak_bytes_ = 0;   ///< high-water in-flight ring bytes
  std::uint64_t futex_parks_ = 0;       ///< times this rank actually parked
  std::uint64_t frames_lent_ = 0;       ///< frames read in place
  std::uint64_t frames_copied_ = 0;     ///< frames copied into the slot
  std::uint64_t lend_evictions_ = 0;    ///< loans copied out for a wait
};

}  // namespace ygm::transport::shm
