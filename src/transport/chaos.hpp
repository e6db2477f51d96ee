// Seeded fault injection for the transport substrate (the "chaos layer").
//
// The substrate's default behaviour is maximally friendly: sends are eager,
// every delivered message is immediately visible, and iprobe never misses.
// Real MPI makes none of those promises — "MPI Progress For All" (Zhou et
// al.) catalogues implementations whose probes exhibit only weak progress,
// and asynchronous many-task traffic routinely sees deep reordering across
// sources. The chaos layer injects exactly the adversity the standard
// permits, so the YGM invariants (exactly-once delivery along routing
// forwards, bcast delivery to every non-origin rank, hop conservation at
// quiescence) can be tested against hostile-but-legal schedules:
//
//   * delivery delay   - an arriving message stays invisible to matching
//                        for a bounded number of the receiver's matching
//                        operations ("ticks"). Per-(source, context) send
//                        order is preserved (MPI non-overtaking), but
//                        messages from different sources reorder freely.
//   * iprobe misses    - iprobe returns "nothing" even though a matchable
//                        message is queued (the classic termination-detector
//                        killer). Misses are capped per slot so progress
//                        remains guaranteed, as the standard requires of
//                        repeated probing.
//   * scheduling stalls- rank threads sleep a bounded random time around
//                        messaging operations, simulating OS jitter and
//                        oversubscription.
//
// All decisions are derived by stateless hashing from (seed, rank, source,
// context, per-stream index), so a given seed reproduces the same fault
// pattern for the same message streams regardless of thread interleaving.
// Because the hashes live in mail_slot — which both backends share as their
// matching engine — a seed produces the same fault pattern on the inproc
// and socket backends alike. Blocking operations never miss and never
// deadlock: a receiver blocked on a delayed message ages the delay with a
// timed wait instead of sleeping forever.
//
// Forced tiny mailbox capacities — the fourth adversary the chaos tests
// sweep — are a mailbox constructor parameter, not a runtime knob; see
// core/invariants.hpp and docs/CHAOS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ygm::transport {

struct chaos_config {
  std::uint64_t seed = 0;

  // Delivery delay: with probability `delay_prob`, an arriving message is
  // held invisible for 1..max_delay_ticks of the receiver's matching
  // operations (iprobe/probe/recv calls on its slot).
  double delay_prob = 0.0;
  std::uint32_t max_delay_ticks = 0;

  // iprobe false negatives: with probability `iprobe_miss_prob`, an iprobe
  // that would match reports no message. At most `max_consecutive_misses`
  // in a row per slot, so repeated probing always makes progress.
  double iprobe_miss_prob = 0.0;
  std::uint32_t max_consecutive_misses = 16;

  // Scheduling jitter: with probability `stall_prob`, a messaging operation
  // sleeps for up to `max_stall_us` microseconds first.
  double stall_prob = 0.0;
  std::uint32_t max_stall_us = 0;

  bool delays_active() const noexcept {
    return delay_prob > 0.0 && max_delay_ticks > 0;
  }
  bool probe_misses_active() const noexcept { return iprobe_miss_prob > 0.0; }
  bool stalls_active() const noexcept {
    return stall_prob > 0.0 && max_stall_us > 0;
  }
  bool enabled() const noexcept {
    return delays_active() || probe_misses_active() || stalls_active();
  }

  /// Mild adversity: occasional short delays and misses. Suitable for
  /// running the whole regular test suite under chaos.
  static chaos_config light(std::uint64_t seed);

  /// Heavy adversity: frequent deep delays, aggressive probe misses, and
  /// scheduling stalls. The setting the chaos sweep uses to flush out
  /// termination and mailbox bugs.
  static chaos_config heavy(std::uint64_t seed);

  /// Build a config from YGM_CHAOS environment variables (see docs/CHAOS.md):
  ///   YGM_CHAOS=light[:SEED] | heavy[:SEED]    preset shorthand
  ///   YGM_CHAOS_SEED, YGM_CHAOS_DELAY_PROB, YGM_CHAOS_MAX_DELAY_TICKS,
  ///   YGM_CHAOS_IPROBE_MISS_PROB, YGM_CHAOS_STALL_PROB,
  ///   YGM_CHAOS_MAX_STALL_US                    individual knobs
  /// Returns nullopt when no YGM_CHAOS* variable is set; throws ygm::error
  /// naming the variable when one is malformed (an unknown preset too).
  static std::optional<chaos_config> from_env();

  /// One-line reproduction recipe ("seed=12 delay=0.5x16 miss=0.3/32
  /// stall=0.05x200us"); printed with every invariant violation.
  std::string describe() const;
};

}  // namespace ygm::transport
