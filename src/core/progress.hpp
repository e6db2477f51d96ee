// The YGM progress engine (ROADMAP item 2): opt-in dedicated progress.
//
// YGM is *pseudo*-asynchronous (paper §IV): nothing moves unless a rank
// polls, so a rank deep in compute stalls every peer routing through it.
// The related work is unanimous that dedicated progress is the fix ("MPI
// Progress For All", arXiv 2405.13807; "Asynchronous MPI for the Masses",
// arXiv 1302.4280). This header adds that mechanism without giving up the
// polling mode's zero-synchronization hot path:
//
//   engine   — one progress thread per OS process hosting rank bodies: one
//              for the whole world on the inproc backend (every rank lives
//              in one process), one per forked rank process on the socket
//              and shm backends. Started per run by ygm::launch
//              (core/launch.hpp) in every process that hosts ranks.
//   station  — one per (comm_world, rank): the engine-visible face of a
//              rank. Owns the rank's registered pumps and the
//              progress_guard depth.
//   pump     — one per mailbox: the closures the engine (engine_advance)
//              and the ygm::progress facade (rank_poll / rank_quiesce)
//              drive, plus the enable/busy/parked handshake flags.
//   guard    — RAII marking a compute region the engine may steal from.
//
// What the engine is allowed to do, and when (the safety contract):
//
//   * It only advances a rank's mailboxes while that rank is inside a
//     progress_guard or parked in wait_empty(). Outside those windows the
//     rank gets no help — and needs none, because it is polling itself.
//   * Mailbox state is protected by a per-mailbox recursive mutex that is
//     only ever taken in engine mode (polling mode keeps its
//     zero-synchronization hot path: one predictable branch). The engine
//     always try-locks: if the rank thread is active inside the mailbox,
//     the engine moves on instead of blocking it.
//   * Deliveries addressed to the rank are NOT executed on the engine
//     thread by default: the engine batches them (packet format, trace
//     escapes included) onto a bounded lock-free ring and the rank thread
//     runs the callbacks at its next poll()/test_empty()/drain(). The
//     application therefore never sees its callback race its compute code.
//     A guard opened with deliver::on_engine opts into engine-side
//     execution for callbacks that are safe to run concurrently.
//   * Termination-detector rounds are only advanced for ranks parked in
//     wait_empty(): a rank inside a guard may still produce messages, and a
//     produce-capable rank participating in detection rounds could latch a
//     false global quiescence.
//   * A full ring is backpressure: the engine stops draining the transport
//     for that mailbox (messages stay in the mail slot) until the rank
//     catches up.
//
// Chaos faults stay injected at the transport seam: the engine drains
// through the same comm::take as the rank (the iprobe and its receive in
// one step), which draws the same stalls, ticks and iprobe misses, so
// visibility delays, iprobe false negatives, and stalls hit engine-stolen
// progress exactly as they hit polled progress.
//
// The progress mode is run_options::progress_mode, resolved with every other
// run knob by the table in core/launch.hpp (default polling).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace ygm::transport {
class endpoint;
}
namespace ygm::core {
class comm_world;
}
namespace ygm::telemetry {
class recorder;
}

namespace ygm::progress {

// ------------------------------------------------------------------- mode

enum class mode {
  polling,  ///< historical behaviour: progress only when a rank polls
  engine,   ///< dedicated progress thread steals from guarded/parked ranks
};

std::string_view to_string(mode m) noexcept;

/// Parse a mode name ("polling" | "engine"); nullopt on anything else.
std::optional<mode> mode_from_name(std::string_view name) noexcept;

/// The mode named by YGM_PROGRESS, defaulting to polling when unset or
/// empty. Throws ygm::error on an unknown name (a typo silently falling
/// back to polling would fake engine coverage).
mode mode_from_env();

// -------------------------------------------------------------- mpsc_ring

/// Bounded lock-free multi-producer / single-consumer ring (Vyukov bounded
/// queue). Two uses here: rank threads handing station registrations to the
/// engine (true MPSC), and the engine handing deferred delivery batches to
/// a rank (SPSC — the producer side is still the general algorithm).
/// Capacity is rounded up to a power of two. try_push never blocks: a full
/// ring returns false and the producer applies backpressure.
template <class T>
class mpsc_ring {
 public:
  explicit mpsc_ring(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::make_unique<slot[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  mpsc_ring(const mpsc_ring&) = delete;
  mpsc_ring& operator=(const mpsc_ring&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  bool try_push(T&& v) noexcept {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.value = std::move(v);
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer only.
  std::optional<T> try_pop() noexcept {
    const std::size_t pos = head_;
    slot& s = slots_[pos & mask_];
    const std::size_t seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) !=
        static_cast<std::intptr_t>(pos + 1)) {
      return std::nullopt;  // empty (or producer mid-write)
    }
    std::optional<T> out(std::move(s.value));
    s.value = T{};
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    ++head_;
    return out;
  }

  /// Consumer-side emptiness (exact for the consumer; producers may be
  /// mid-push, in which case the entry is visible to the next call).
  bool empty() const noexcept {
    const slot& s = slots_[head_ & mask_];
    return static_cast<std::intptr_t>(s.seq.load(std::memory_order_acquire)) !=
           static_cast<std::intptr_t>(head_ + 1);
  }

  /// Producer-side fullness hint (exact under a single producer).
  bool full() const noexcept {
    const std::size_t pos = tail_.load(std::memory_order_relaxed);
    const slot& s = slots_[pos & mask_];
    return static_cast<std::intptr_t>(s.seq.load(std::memory_order_acquire)) <
           static_cast<std::intptr_t>(pos);
  }

 private:
  struct slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<slot[]> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producers
  alignas(64) std::size_t head_ = 0;              // single consumer
};

// ------------------------------------------------------------------- pump

/// One mailbox's registration with its station. The engine drives
/// engine_advance (nullptr when the mailbox opted out, e.g. timed worlds);
/// the ygm::progress facade drives rank_poll/rank_quiesce on the rank
/// thread in both modes.
struct pump {
  /// Cleared by the mailbox destructor (via station::remove_pump) before
  /// the mailbox dies; the engine never invokes a disabled pump.
  std::atomic<bool> enabled{true};
  /// Set by the engine around each engine_advance call; remove_pump spins
  /// on it so teardown cannot race a steal in flight.
  std::atomic<bool> busy{false};
  /// Set by the mailbox while its owner blocks in wait_empty() — the only
  /// window in which the engine may advance termination rounds.
  std::atomic<bool> parked{false};

  /// Engine thread. Returns true if any progress was made. The bool asks
  /// for engine-side callback execution (guard deliver::on_engine).
  std::function<bool(bool inline_deliveries)> engine_advance;
  /// Rank thread (facade drain()).
  std::function<void()> rank_poll;
  /// Rank thread (facade quiesce(); collective).
  std::function<void()> rank_quiesce;
};

// ---------------------------------------------------------------- station

class engine;

/// One rank's face toward the engine: pumps, guard depth, and the transport
/// endpoint whose progress_hook the engine donates cycles to. Created by
/// comm_world (always — the ygm::progress facade works in polling mode
/// too); registered with the engine only when one is installed and the
/// world is eligible (untimed).
class station {
 public:
  station(engine* eng, transport::endpoint* ep);

  station(const station&) = delete;
  station& operator=(const station&) = delete;

  /// The engine this station is registered with (nullptr in polling mode).
  engine* attached_engine() const noexcept { return engine_; }
  bool engine_attached() const noexcept { return engine_ != nullptr; }

  // ----------------------------------------------------------- rank side

  void add_pump(std::shared_ptr<pump> p);

  /// Disable + wait out any steal in flight on `p`, then drop it. After
  /// this returns the engine will never touch the owning mailbox again.
  void remove_pump(const std::shared_ptr<pump>& p);

  void enter_guard(bool inline_deliveries) noexcept;
  void exit_guard(bool inline_deliveries) noexcept;

  /// Stop the engine from ever touching this station again (idempotent;
  /// spins out a service pass in flight). comm_world's destructor calls
  /// this before the endpoint can die.
  void shutdown() noexcept;

  /// Rank-side iteration for the facade (drain()/quiesce()).
  void for_each_pump(const std::function<void(pump&)>& f);

  // -------------------------------------------------- mailbox-side state

  /// Depth of open progress_guards on the owning rank.
  int guard_depth() const noexcept {
    return guard_depth_.load(std::memory_order_acquire);
  }
  /// True while a deliver::on_engine guard is open.
  bool inline_deliveries() const noexcept {
    return inline_depth_.load(std::memory_order_acquire) > 0;
  }

  // ---------------------------------------------------------- engine side

  /// One engine service pass: advance eligible pumps, donate a pump to the
  /// endpoint's progress hook. Returns true if any progress was made.
  bool service();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

 private:
  engine* engine_;
  transport::endpoint* ep_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> servicing_{false};
  std::atomic<int> guard_depth_{0};
  std::atomic<int> inline_depth_{0};
  std::mutex pumps_mtx_;
  std::vector<std::shared_ptr<pump>> pumps_;
  std::vector<std::shared_ptr<pump>> scratch_;  // engine-side snapshot
};

// ----------------------------------------------------------------- engine

/// Slots in each mailbox's deferred-delivery ring (batches, one per engine
/// drain pass).
inline constexpr std::size_t deferred_ring_slots = 64;

class engine {
 public:
  /// Monotonic counters, readable from any thread (tests, benches).
  struct counters {
    std::uint64_t passes = 0;         ///< service loop iterations
    std::uint64_t steal_attempts = 0; ///< pump engine_advance invocations
    std::uint64_t steals = 0;         ///< invocations that made progress
    std::uint64_t hook_pumps = 0;     ///< endpoint progress_hook donations
  };

  /// `telemetry_world` >= 0 binds the engine thread to a fresh lane of that
  /// telemetry world (session::add_lane), so causal hop events recorded
  /// from the engine stitch into the same journeys as the rank lanes, and
  /// its hop timestamps read the session clock. -1 (no session) records
  /// nothing.
  explicit engine(int telemetry_world = -1);
  ~engine();

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  /// Register a station (thread-safe; lock-free handoff to the engine
  /// loop). The engine holds a reference until the station shuts down.
  void adopt(std::shared_ptr<station> st);

  counters stats() const noexcept;

  // Station-side accounting (called from the engine thread during service).
  void note_steal(bool advanced) noexcept;
  void note_hook_pump() noexcept;

 private:
  void loop();
  void publish_counters();

  int telemetry_world_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> hook_pumps_{0};
  mpsc_ring<std::shared_ptr<station>> incoming_{256};
  std::vector<std::shared_ptr<station>> stations_;  // engine thread only
  std::thread thread_;
};

// ------------------------------------------------- process-wide installation

/// The process's installed engine, or nullptr in polling mode. Set before
/// rank bodies start and cleared after they join (thread creation/join
/// provides the ordering), so rank threads may read it without
/// synchronization.
engine* current() noexcept;

/// Owns the process engine and installs it as current() for its lifetime.
/// One per OS process hosting rank bodies; ygm::launch creates it in each
/// (the driver process on inproc, each forked child on socket and shm — an
/// engine thread would not survive fork).
class engine_scope {
 public:
  explicit engine_scope(int telemetry_world = -1);
  ~engine_scope();

  engine_scope(const engine_scope&) = delete;
  engine_scope& operator=(const engine_scope&) = delete;

  engine& get() noexcept { return *eng_; }

 private:
  std::unique_ptr<engine> eng_;
};

// ------------------------------------------------------------- rank facade
//
// The ygm::progress surface applications use instead of raw mailbox
// poll_incoming()/flush() passthroughs. All of it works in polling mode too
// (guard becomes a no-op marker, drain/quiesce drive the mailboxes from the
// rank thread), so application code is mode-independent.

/// Delivery policy for a guard region.
enum class deliver {
  deferred,   ///< engine batches callbacks; the rank runs them at drain
  on_engine,  ///< engine runs callbacks directly (caller asserts safety)
};

/// RAII: marks a compute region the engine may steal progress from. Open it
/// around compute loops between sends; close it before touching state your
/// callbacks share without synchronization (unless you opted into
/// deliver::deferred, the default, which never runs callbacks concurrently
/// with the rank).
class guard {
 public:
  explicit guard(core::comm_world& w, deliver policy = deliver::deferred);
  ~guard();

  guard(const guard&) = delete;
  guard& operator=(const guard&) = delete;

 private:
  station* st_;
  bool inline_ = false;
};

/// Deliver any engine-deferred callbacks and opportunistically poll every
/// mailbox of the world, on the calling rank's thread. Safe in any mode.
void drain(core::comm_world& w);

/// Collective: wait_empty() every mailbox of the world, in construction
/// order (identical across ranks by the mailbox tag-block contract).
void quiesce(core::comm_world& w);

}  // namespace ygm::progress
