// Backend #3: one OS process per rank over shared-memory SPSC rings.
//
// Topology: full mesh of bounded byte rings. Each rank owns ONE shm_open
// segment named "/<token>.r<rank>" (token = basename of the rendezvous
// directory) holding every ring INBOUND to it: a pair_block per producer
// rank with one ring of ring_bytes, an ordered byte stream of whole frames.
// A rank therefore maps nranks segments — its own as the consumer, every
// peer's as a producer — and rendezvous is pure filesystem: the creator
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
// passes. The consumer appends the payload to a pooled buffer as it
// becomes readable and delivers the frame when its last byte lands.
// Pooled packet buffers are the memcpy source and destination on the two
// sides, so bytes cross the process boundary exactly once, with no
// intermediate serialization or staging copy.
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
// of deadlocking). transport::outq_cap_bytes() does not apply here: its
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
// their slots. A rank killed without unwinding cannot do that, so the
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

/// One producer rank's lane into a segment: its ring's control block and
/// data. Fixed-size so the segment layout is plain indexing.
struct alignas(cache_line) pair_block {
  ring_ctrl ctrl;
  std::byte data[ring_bytes];
};

inline constexpr std::uint32_t seg_magic = 0x79676d73;  // "ygms"

/// Segment byte size for a world of nranks (a pair_block per producer;
/// the self slot is unused but keeps indexing trivial).
constexpr std::size_t segment_bytes(int nranks) {
  return sizeof(seg_header) +
         static_cast<std::size_t>(nranks) * sizeof(pair_block);
}

/// "/<token>.r<rank>" — the shm_open name of one rank's inbound segment,
/// where token is the basename of the rendezvous directory. Exposed so the
/// launcher's orphan sweep and tests can reconstruct names.
std::string segment_name(const std::string& dir, int rank);

/// Poison the world rendezvoused under `dir` from outside it: set the
/// abort flag in every rank segment that exists and ring its recv
/// doorbell, so ranks parked on a dead peer wake and fail. The launcher
/// calls this when a rank's result pipe closes without a report.
void poison_world(const std::string& dir, int nranks);

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
  /// here between passes (its size is the bytes received so far).
  struct in_pair {
    ring_view ring;
    bool have_hdr = false;
    wire_header hdr{};
    std::vector<std::byte> payload;
    bool fin_seen = false;
  };

  void send(int dest, envelope&& e) override;
  /// One pump_inbound() pass; reports whether any bytes were consumed.
  bool pump(bool from_engine) override;
  void wait(const match_miss& miss) override;

  /// Drain every inbound ring into the slot (strictly nonblocking).
  /// Returns true if any bytes were consumed.
  bool pump_inbound();
  bool pump_pair(int src, in_pair& p);

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
  // ring-level counters, published with the endpoint stats at teardown
  std::uint64_t ring_tx_bytes_ = 0;
  std::uint64_t ring_rx_bytes_ = 0;
  std::uint64_t ring_full_stalls_ = 0;  ///< waits for ring space
  std::uint64_t outq_peak_bytes_ = 0;   ///< high-water in-flight ring bytes
  std::uint64_t futex_parks_ = 0;       ///< times this rank actually parked
};

}  // namespace ygm::transport::shm
