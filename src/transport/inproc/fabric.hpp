// Backend #1: the in-process threaded simulator (ranks are threads, one
// address space). This is the original mpisim substrate re-homed behind the
// transport::endpoint interface — behaviour-identical, chaos hooks
// preserved.
//
// A `fabric` is the process-wide shared state of one run: the per-rank mail
// slots, the chaos config, the outbound cap, the clock epoch, and abort
// propagation (what `mpisim::world` used to be). Each rank thread then holds
// one `inproc::endpoint`, which sends by locking the destination slot
// directly — no wire, no framing cost, which is exactly why this backend
// remains the default for tests and single-host benchmarks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/endpoint.hpp"
#include "transport/mail_slot.hpp"

namespace ygm::transport::inproc {

/// Shared by every rank thread of one run invocation. Thread-safe.
class fabric {
 public:
  /// `outq_cap` is every endpoint's outq_cap() (0: no cap).
  fabric(int nranks, std::size_t outq_cap);

  int size() const noexcept { return static_cast<int>(slots_.size()); }
  std::size_t outq_cap() const noexcept { return outq_cap_; }

  mail_slot& slot(int world_rank);

  /// Install seeded fault injection on every rank slot. Must run before any
  /// traffic flows (ygm::launch calls this before spawning rank threads).
  void set_chaos(const chaos_config& cfg);

  /// The chaos config in force (defaults to everything-off).
  const chaos_config& chaos() const noexcept { return chaos_; }

  /// monotonic_seconds() when this fabric was created: every rank's
  /// wtime() counts from it.
  double epoch() const noexcept { return epoch_; }

  /// Poison all slots so blocked ranks wake with an error; called when a
  /// rank function throws, to avoid deadlocking the remaining ranks.
  void abort_all();

  bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  std::vector<std::unique_ptr<mail_slot>> slots_;
  const std::size_t outq_cap_;
  chaos_config chaos_{};
  std::atomic<bool> aborted_{false};
  double epoch_ = monotonic_seconds();
};

/// One rank thread's endpoint onto a shared fabric. Senders deliver
/// straight into the destination's slot, so there is nothing to pump; a
/// blocked receive sleeps on its own slot until the next delivery, for at
/// most 10 ms at a time.
class endpoint final : public transport::endpoint {
 public:
  endpoint(fabric& f, int rank);
  ~endpoint() override;

  void abort_world() override;

 private:
  /// Deliver into the destination slot, applying the outbound cap as a
  /// *soft* bound: when the destination's queued bytes exceed
  /// outq_cap() the sender waits (bounded) for the receiver to drain,
  /// then proceeds regardless — with threads sharing one address space a
  /// hard block here could deadlock a receiver that is itself blocked
  /// posting, so overruns are counted (outq_overflows) instead of risking
  /// liveness. The mailbox credit layer above provides the hard guarantee.
  void send(int dest, envelope&& e) override;
  bool pump(bool /*from_engine*/) override { return false; }
  void wait(const match_miss& miss) override;

  fabric* fabric_;
  // outbound-cap counters, published at teardown
  std::uint64_t outq_peak_bytes_ = 0;
  std::uint64_t outq_stalls_ = 0;
  std::uint64_t outq_overflows_ = 0;
};

}  // namespace ygm::transport::inproc
