// Per-rank incoming-message queue with MPI-style matching.
//
// This is the matching engine every transport backend shares: the inproc
// backend delivers into it from sender threads, the socket and shm backends
// deliver into it from their pumps as frames complete. Keeping one engine
// keeps the matching semantics — and the chaos fault patterns, which hash
// from slot-local state — bitwise identical across backends. Matching never
// blocks here; the blocking receive loop is transport::endpoint's.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "transport/chaos.hpp"
#include "transport/envelope.hpp"
#include "transport/types.hpp"

namespace ygm::transport {

/// What one failed match of a blocking receive or probe saw. The endpoint's
/// receive loop hands it from the slot to the backend's wait() hook.
struct match_miss {
  const char* op = "recv";  ///< "recv" or "probe": names the call in errors
  bool delayed = false;     ///< a matching message is queued but chaos-delayed
  std::uint64_t deliveries = 0;  ///< the slot's delivery count at the match
};

/// One rank's incoming mailbox. Senders call deliver(); the owning rank
/// matches messages by (source, tag, context), with any_source/any_tag
/// wildcards. Matching scans the queue in arrival order, which preserves
/// MPI's non-overtaking guarantee per (source, context): messages from one
/// sender are delivered in the order they were sent.
///
/// With a chaos config installed (configure_chaos), the slot additionally
/// injects MPI-legal adversity: arriving messages may stay invisible to
/// matching for a bounded number of this rank's matching operations
/// (per-source order preserved, cross-source order scrambled), iprobe may
/// report false negatives a bounded number of times in a row, and messaging
/// operations may stall briefly. All decisions are hashes of
/// (seed, rank, source, context, stream index), so a seed reproduces the
/// same fault pattern for the same message streams.
///
/// abort() poisons the slot so that a rank waiting on it wakes up and its
/// next match throws instead of deadlocking when another rank dies with an
/// exception.
class mail_slot {
 public:
  /// Enqueue a message (called by sender threads or the backend's wire
  /// pump).
  void deliver(envelope&& e);

  /// A backend that can hand a frame to take() where it lies admits it
  /// here first: the frame takes its chaos stall and delay draws exactly
  /// as deliver() would give them, in stream order. `lendable` says take()
  /// may hand it out in place now: the draw makes it visible at the next
  /// match. Otherwise the backend copies the frame in with
  /// deliver(e, visible_at). While a queued message of the same (source,
  /// tag, context) would match ahead of the frame, admit() draws nothing
  /// and returns nullopt: the frame waits where it lies until take() has
  /// served that message.
  struct admission {
    std::uint64_t visible_at = 0;
    bool lendable = false;
  };
  std::optional<admission> admit(int src, int tag, std::uint64_t ctx);

  /// Enqueue an admitted frame under the visibility its admission drew
  /// (no further draws).
  void deliver(envelope&& e, std::uint64_t visible_at);

  /// What take() matched: a queued message, or the frame the caller
  /// offered (admitted, lendable), or neither.
  struct taken {
    std::optional<envelope> env;
    bool offer = false;
  };

  /// Match any source on (tag, ctx) and remove in one step: exactly the
  /// nonblocking iprobe then receive of the match, as one call. It stalls,
  /// ticks the clock and draws iprobe misses as that pair does, so a chaos
  /// seed keeps its fault pattern. `have_offer` says the caller holds an
  /// admitted, lendable frame matching (tag, ctx); a queued match goes
  /// first, and the offer is taken only when none is visible.
  taken take(int tag, std::uint64_t ctx, bool have_offer);

  /// Nonblocking matched receive: removes and returns the first visible
  /// match. Throws ygm::error if the world has been aborted. A blocking
  /// caller passes `miss`, which a failed match fills in for its wait.
  std::optional<envelope> try_recv_match(int src, int tag, std::uint64_t ctx,
                                         match_miss* miss = nullptr);

  /// Nonblocking probe: peek at the first match without removing it. Under
  /// chaos this is the only operation allowed to lie (bounded false
  /// negatives).
  std::optional<status> iprobe(int src, int tag, std::uint64_t ctx);

  /// Nonblocking peek that never takes chaos misses (the building block for
  /// the *blocking* probe, which must be miss-immune just like recv).
  /// `miss` as in try_recv_match.
  std::optional<status> try_probe(int src, int tag, std::uint64_t ctx,
                                  match_miss* miss = nullptr);

  /// Block until the delivery count differs from `seen` (a miss's
  /// `deliveries`), the slot is aborted, or `timeout` passes. Keying on the
  /// count the failed match observed means a delivery that landed after
  /// that match returns at once: no wakeup is lost.
  void wait_for_delivery(std::uint64_t seen, std::chrono::microseconds timeout);

  /// Messages ever delivered: the count a match_miss records. A backend's
  /// wait compares the two to tell whether anything arrived since a failed
  /// match.
  std::uint64_t deliveries() const;

  /// Chaos scheduling jitter: maybe sleep briefly, one draw per call.
  /// Called without the slot's lock, once per messaging operation.
  void maybe_stall();

  /// Number of queued (unreceived) messages, across all contexts. Counts
  /// chaos-delayed messages too (they have been sent, just not yet "seen").
  std::size_t pending() const;

  /// Payload bytes currently queued (unreceived), across all contexts.
  /// Lock-free (relaxed atomic) so a *sender* can consult the destination's
  /// queue depth for backpressure without contending on the slot mutex.
  std::size_t queued_bytes() const noexcept {
    return payload_bytes_.load(std::memory_order_relaxed);
  }

  /// Install fault injection for this slot; `owner_rank` diversifies the
  /// per-rank hash streams. Must be called before any traffic flows
  /// (backends do this during endpoint setup).
  void configure_chaos(const chaos_config& cfg, int owner_rank);

  /// Wake all blocked operations with an error (world teardown on failure).
  void abort();

  /// Cumulative probe behaviour, for the endpoint's per-backend telemetry
  /// lane (docs/TRANSPORT.md §Observability). `draws` counts the eligible
  /// miss draws taken (iprobe calls that had a matchable message while
  /// misses were armed) and `misses` the false negatives actually injected;
  /// `iprobe_calls` counts every iprobe regardless of queue state.
  struct probe_counters {
    std::uint64_t iprobe_calls = 0;
    std::uint64_t draws = 0;
    std::uint64_t misses = 0;
  };
  probe_counters probe_stats() const;

 private:
  struct queued {
    envelope env;
    std::uint64_t visible_at = 0;  ///< tick at which matching may see it
  };

  /// Per-(source, context) chaos bookkeeping: how many messages this stream
  /// has delivered (the deterministic per-message index) and the visibility
  /// deadline of its latest message (non-overtaking clamp).
  struct stream_state {
    std::uint64_t arrivals = 0;
    std::uint64_t last_visible_at = 0;
  };

  static bool matches(const envelope& e, int src, int tag, std::uint64_t ctx) {
    return e.ctx == ctx && (src == any_source || e.src == src) &&
           (tag == any_tag || e.tag == tag);
  }

  /// One matching operation under mtx_: throws once aborted, advances this
  /// rank's matching clock (which matures delayed messages), and returns
  /// the index of the first *visible* match in q_ (npos when none). A
  /// non-null `miss` is filled in for the caller's wait.
  std::size_t match_locked(int src, int tag, std::uint64_t ctx,
                           match_miss* miss);

  /// The chaos visibility deadline of the next message of (src, ctx), in
  /// stream order; 0 (visible at once) without delays. Under mtx_.
  std::uint64_t draw_visible_at_locked(int src, std::uint64_t ctx);

  void enqueue_locked(envelope&& e, std::uint64_t visible_at);

  /// One eligible iprobe's false-negative draw, capped at
  /// max_consecutive_misses in a row. Under mtx_.
  bool draw_probe_miss_locked();

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  mutable std::mutex mtx_;
  std::condition_variable cv_;
  std::deque<queued> q_;
  std::atomic<std::size_t> payload_bytes_{0};  ///< sum of q_ payload sizes
  std::uint64_t deliveries_ = 0;  ///< messages ever delivered (wait key)
  bool aborted_ = false;

  // ------------------------------------------------------------- chaos
  chaos_config chaos_{};  // default: everything off
  int rank_ = 0;
  std::uint64_t clock_ = 0;    ///< matching operations performed
  std::uint32_t misses_ = 0;   ///< consecutive iprobe false negatives
  std::uint64_t probe_draws_ = 0;  ///< eligible iprobe miss draws taken
  std::uint64_t iprobe_calls_ = 0;  ///< every iprobe (telemetry only)
  std::uint64_t miss_total_ = 0;    ///< false negatives injected (telemetry)
  std::unordered_map<std::uint64_t, stream_state> streams_;
  std::atomic<std::uint64_t> stall_draws_{0};
};

}  // namespace ygm::transport
