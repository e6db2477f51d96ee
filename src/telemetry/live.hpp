// Live telemetry substrate (docs/TELEMETRY.md §Live telemetry).
//
// Everything else in the telemetry layer is post-mortem: the registry
// exports once at teardown and causal traces need the offline ygm_trace
// analyzer. This header adds the shared-state half of the *live* path —
// the data structures a sampler/statusz thread may read while the rank
// threads are still writing:
//
//   gauge_slot  — one live gauge (queued bytes, credit in flight, outq
//                 depth). Single writer (the lane's owning thread), any
//                 reader; windowed min/mean/max via a sampler-bumped global
//                 window epoch. All relaxed atomics — a torn window is a
//                 display artifact, never UB.
//   sketch      — one online log2 latency histogram per (routing scheme,
//                 latency kind), fed from the causal-trace hop sites in the
//                 mailbox, so live p50/p99/p999 exists without ygm_trace.
//   lane_registry — the process-global set of currently *bound* lanes
//                 (rank_scope ctor/dtor notify it). The sampler and statusz
//                 only ever walk bound lanes under the registry lock, which
//                 is what makes a torn-down world's series disappear
//                 instead of bleeding stale values forward.
//
// The layer follows the telemetry compile-out contract: with
// -DYGM_TELEMETRY=OFF everything still compiles, tls() is a constant
// nullptr so the inline feed helpers (telemetry.hpp) fold to nothing, and
// make_process_services() returns an empty handle.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ygm::telemetry {
class recorder;
}

namespace ygm::telemetry::live {

// ------------------------------------------------------------ window epoch
//
// The sampler bumps the global window epoch once per tick; gauge writers
// reset their window accumulators when they observe a new epoch. No
// per-sample synchronization beyond one relaxed load.

std::uint64_t window_epoch() noexcept;
void bump_window_epoch() noexcept;  // sampler tick only

// ------------------------------------------------------------- live gauges

enum class gauge : unsigned {
  queued_bytes,  ///< mailbox coalescing-buffer occupancy (bytes)
  credit_used,   ///< unacked flow-control bytes in flight (sum over links)
  outq_bytes,    ///< transport outbound-queue occupancy (bytes)
  count_  // sentinel
};

std::string_view gauge_name(gauge g);

/// One live gauge: single writer (the owning lane's thread), any reader.
struct gauge_slot {
  std::atomic<double> last{0};
  std::atomic<double> wmin{0};
  std::atomic<double> wmax{0};
  std::atomic<double> wsum{0};
  std::atomic<std::uint64_t> wcount{0};
  std::atomic<std::uint64_t> epoch{0};

  void set(double v) noexcept {
    const std::uint64_t we = window_epoch();
    if (epoch.load(std::memory_order_relaxed) != we) {
      epoch.store(we, std::memory_order_relaxed);
      wmin.store(v, std::memory_order_relaxed);
      wmax.store(v, std::memory_order_relaxed);
      wsum.store(v, std::memory_order_relaxed);
      wcount.store(1, std::memory_order_relaxed);
    } else {
      if (v < wmin.load(std::memory_order_relaxed)) {
        wmin.store(v, std::memory_order_relaxed);
      }
      if (v > wmax.load(std::memory_order_relaxed)) {
        wmax.store(v, std::memory_order_relaxed);
      }
      wsum.store(wsum.load(std::memory_order_relaxed) + v,
                 std::memory_order_relaxed);
      wcount.store(wcount.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
    last.store(v, std::memory_order_relaxed);
  }

  struct window {
    double last = 0;
    double min = 0, mean = 0, max = 0;
    std::uint64_t count = 0;  ///< samples this window (0 = stats invalid)
  };

  /// Reader side: last value always; window stats only when the writer
  /// touched the slot during `current_epoch`.
  window read(std::uint64_t current_epoch) const noexcept {
    window w;
    w.last = last.load(std::memory_order_relaxed);
    if (epoch.load(std::memory_order_relaxed) == current_epoch) {
      const std::uint64_t n = wcount.load(std::memory_order_relaxed);
      if (n != 0) {
        w.count = n;
        w.min = wmin.load(std::memory_order_relaxed);
        w.max = wmax.load(std::memory_order_relaxed);
        w.mean = wsum.load(std::memory_order_relaxed) /
                 static_cast<double>(n);
      }
    }
    return w;
  }
};

// -------------------------------------------------------- latency sketches

enum class latency_kind : unsigned {
  e2e,    ///< origin send() to final deliver (journey end-to-end)
  flush,  ///< coalescing-buffer residency (enqueue to wire flush)
  count_  // sentinel
};

std::string_view latency_kind_name(latency_kind k);

/// routing::scheme_kind cardinality; indices match that enum (the pinning
/// is the same one kSchemeHopNames relies on in session.cpp).
inline constexpr unsigned kSchemes = 4;

std::string_view scheme_name(unsigned scheme_index);

/// Registry histogram name a (scheme, kind) sketch folds into at export,
/// e.g. "live.e2e_us.NLNR" — how the sketches ship across socket lanes.
std::string sketch_metric_name(unsigned scheme_index, latency_kind k);

/// Online log2 histogram: single writer, any reader, relaxed atomics.
/// Bucket mapping is histogram::bucket_index so live percentiles and the
/// offline registry histograms agree bucket-for-bucket.
struct sketch {
  std::array<std::atomic<std::uint64_t>, histogram::num_buckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{0};

  void record(double v) noexcept {
    if (v < 0) v = 0;
    const auto b = static_cast<std::size_t>(histogram::bucket_index(v));
    buckets[b].store(buckets[b].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    sum.store(sum.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
    if (v < min.load(std::memory_order_relaxed)) {
      min.store(v, std::memory_order_relaxed);
    }
    if (v > max.load(std::memory_order_relaxed)) {
      max.store(v, std::memory_order_relaxed);
    }
  }

  /// Concurrent-read snapshot (a torn count/bucket pair shifts a live
  /// percentile by at most one in-flight sample).
  histogram snapshot() const noexcept {
    std::array<std::uint64_t, histogram::num_buckets> b{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = buckets[i].load(std::memory_order_relaxed);
    }
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    return histogram::from_parts(b, n, sum.load(std::memory_order_relaxed),
                                 min.load(std::memory_order_relaxed),
                                 max.load(std::memory_order_relaxed));
  }

  /// Snapshot-and-reset, for fold_fast_metrics at export time (writer has
  /// quiesced by then).
  histogram take() noexcept {
    std::array<std::uint64_t, histogram::num_buckets> b{};
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = buckets[i].exchange(0, std::memory_order_relaxed);
    }
    const std::uint64_t n = count.exchange(0, std::memory_order_relaxed);
    const double s = sum.exchange(0, std::memory_order_relaxed);
    const double lo =
        min.exchange(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    const double hi = max.exchange(0, std::memory_order_relaxed);
    return histogram::from_parts(b, n, s, lo, hi);
  }
};

// -------------------------------------------------------------- live block
//
// One per recorder: the fixed-slot state the live readers may touch while
// the lane's thread is running. Everything else in recorder (named
// registry, intern table, ring cursor bookkeeping beyond what event_ring
// already allows) stays export-only.

struct live_block {
  gauge_slot gauges[static_cast<unsigned>(gauge::count_)];
  sketch sketches[kSchemes][static_cast<unsigned>(latency_kind::count_)];

  void set_gauge(gauge g, double v) noexcept {
    gauges[static_cast<unsigned>(g)].set(v);
  }
  void record_latency(unsigned scheme_index, latency_kind k,
                      double us) noexcept {
    if (scheme_index < kSchemes) {
      sketches[scheme_index][static_cast<unsigned>(k)].record(us);
    }
  }
};

// ------------------------------------------------------------ lane registry
//
// The set of lanes currently bound to a thread (rank_scope ctor/dtor).
// for_each holds the lock across the visit, so a visited recorder cannot be
// torn down mid-read — and an unbound lane is simply never visited again,
// which is the stale-gauge fix: a dead world's series stop, they do not
// coast on last values.

class lane_registry {
 public:
  static lane_registry& instance();

  void bind(recorder* rec, int world, int rank);
  void unbind(recorder* rec);

  /// Visit every bound lane under the registry lock.
  void for_each(
      const std::function<void(recorder&, int world, int rank)>& f);

  std::size_t bound_count() const;

 private:
  lane_registry() = default;
  struct entry {
    recorder* rec;
    int world;
    int rank;
    int refs;  // nested rank_scopes on the same lane
  };
  mutable std::mutex mtx_;
  std::vector<entry> lanes_;
};

// ------------------------------------------------------- engine stats feed
//
// The progress engine registers a stats provider at construction and clears
// it (under the same mutex statusz queries through) before its thread stops,
// so a statusz request can never race engine teardown.

struct engine_stats {
  bool valid = false;
  std::uint64_t passes = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t hook_pumps = 0;
};

/// Install (or, with an empty function, clear) the engine stats provider.
void set_engine_stats_provider(std::function<engine_stats()> provider);
engine_stats query_engine_stats();

/// The engine marks itself as the sampler driver for its lifetime: when a
/// driver is active, make_process_services() creates the sampler without a
/// dedicated thread and the engine loop pumps it via sampler_poll().
void set_engine_driver(bool active) noexcept;
bool engine_driver_active() noexcept;

/// Driver-side pump: ticks the installed sampler when its period elapsed.
/// Cheap no-op (one mutex + clock compare) when no sampler is installed or
/// the tick is not due; safe from any thread. Defined in sampler.cpp.
void sampler_poll() noexcept;

// ------------------------------------------------------------ statusz dir

/// Directory statusz sockets are created in: YGM_STATUSZ_DIR > the launch
/// directory of the socket and shm backends (set_statusz_dir_hint, called
/// in each forked child) > $TMPDIR > /tmp.
std::string statusz_dir();
void set_statusz_dir_hint(const std::string& dir);

// --------------------------------------------------------- process services

/// Start the per-process live services of one run (run_options::sample_ms
/// and ::statusz as ygm::launch resolved them): a sampler ticking every
/// `sample_ms` when it is > 0 (engine-driven when an engine registered as
/// driver, dedicated thread otherwise) and a statusz server when `statusz`.
/// Returns nullptr when nothing is enabled or telemetry is compiled out;
/// destroying the handle stops both services.
std::shared_ptr<void> make_process_services(int sample_ms, bool statusz);

}  // namespace ygm::telemetry::live
