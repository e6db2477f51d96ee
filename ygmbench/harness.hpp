// Measurement pieces of the repo benchmark that do not depend on a
// workload: the host-wide clock, a fixed log-bucket latency histogram, the
// per-source delivery ledger, the span recorder that computes self times,
// and small statistics helpers. Everything here is used from rank bodies,
// so it is plain single-writer state with no synchronization.
#pragma once

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace ygmbench {

/// CLOCK_MONOTONIC in nanoseconds. The clock is host-wide, so a timestamp
/// taken in one forked rank process is comparable with one taken in
/// another; that is what makes send-to-callback latency measurable across
/// ranks.
inline std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of the calling thread in nanoseconds (a rank thread on inproc,
/// the rank process's only thread on the forked backends).
inline std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Bind the calling thread (a rank thread on inproc, the rank process on
/// the forked backends) to the index-th CPU this process may use, the way
/// MPI launchers bind one rank per core. Without it, the scheduler's
/// placement of the four spinning ranks changes from run to run and so
/// does the throughput.
inline void pin_to_cpu(int index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n == 0) return;
  int want = index % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

/// Fixed-size latency histogram over nanoseconds: 16 linear sub-buckets per
/// power of two (values below 16 ns are exact), so any percentile is
/// resolved to within 1/16 of its octave before interpolation. Recording is
/// one bit scan and one increment; memory never grows with the run.
class latency_histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const auto m = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
    return (e - kSubBits + 1) * kSub + m;
  }
  /// [lower, lower + width) covered by bucket i.
  static double lower(int i) noexcept {
    if (i < kSub) return i;
    const int e = i / kSub + kSubBits - 1;
    const int m = i % kSub;
    return static_cast<double>((std::uint64_t{1} << e) +
                               (static_cast<std::uint64_t>(m) << (e - kSubBits)));
  }
  static double width(int i) noexcept {
    if (i < kSub) return 1;
    const int e = i / kSub + kSubBits - 1;
    return static_cast<double>(std::uint64_t{1} << (e - kSubBits));
  }

  void record(std::uint64_t ns) noexcept {
    ++buckets_[static_cast<std::size_t>(index(ns))];
    ++count_;
  }
  void merge(const latency_histogram& o) noexcept {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const noexcept { return count_; }

  /// p-quantile in nanoseconds, interpolated linearly inside its bucket.
  double percentile(double p) const noexcept {
    if (count_ == 0) return 0;
    const double target = p * static_cast<double>(count_);
    double seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const auto n = static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
      if (n == 0) continue;
      if (seen + n >= target) {
        return lower(i) + width(i) * std::clamp((target - seen) / n, 0.0, 1.0);
      }
      seen += n;
    }
    return lower(kBuckets - 1);
  }

  template <class A>
  void serialize(A& ar) {
    ar & buckets_ & count_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// Exactly-once ledger for one receiving rank. Every source sends the same
/// number of records to every destination per batch, numbered 0..n-1; the
/// ledger keeps one bit per expected (source, sequence) and counts
/// out-of-range or repeated arrivals as duplicates and unset bits as
/// missing.
class delivery_ledger {
 public:
  delivery_ledger(int nsources, std::uint64_t per_source)
      : per_source_(per_source),
        words_per_source_((per_source + 63) / 64),
        bits_(static_cast<std::size_t>(nsources) * words_per_source_, 0),
        nsources_(nsources) {}

  void note(int source, std::uint64_t seq) noexcept {
    if (source < 0 || source >= nsources_ || seq >= per_source_) {
      ++duplicated_;
      return;
    }
    auto& w = bits_[static_cast<std::size_t>(source) * words_per_source_ +
                    seq / 64];
    const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
    if ((w & bit) != 0) {
      ++duplicated_;
    } else {
      w |= bit;
      ++received_;
    }
  }

  /// Close a batch in which `expected_sources` sources each sent
  /// per_source records here; returns missing + duplicated and resets.
  std::uint64_t finish_batch(int expected_sources) {
    const std::uint64_t expected =
        static_cast<std::uint64_t>(expected_sources) * per_source_;
    const std::uint64_t missing = expected > received_ ? expected - received_ : 0;
    const std::uint64_t bad = missing + duplicated_;
    std::fill(bits_.begin(), bits_.end(), 0);
    received_ = 0;
    duplicated_ = 0;
    return bad;
  }

 private:
  std::uint64_t per_source_;
  std::uint64_t words_per_source_;
  std::vector<std::uint64_t> bits_;
  int nsources_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicated_ = 0;
};

/// The layers whose public calls the benchmark wraps in spans.
enum span_kind : std::uint8_t {
  k_send,                  ///< mailbox::send that did not flush
  k_exchange,              ///< mailbox::send that flushed (an exchange)
  k_wait_empty,            ///< mailbox::wait_empty
  k_callback,              ///< the benchmark's own receive callback
  k_degree_count,          ///< apps::degree_count
  k_select_delegates,      ///< graph::select_delegates
  k_connected_components,  ///< apps::connected_components
  k_span_kinds
};

inline const char* span_name(int k) {
  static const char* const names[k_span_kinds] = {
      "core.send",           "core.exchange",
      "core.wait_empty",     "apps.callback",
      "apps.degree_count",   "apps.select_delegates",
      "apps.connected_components"};
  return names[k];
}

/// One closed span as written to the span file.
struct span_event {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint8_t kind = 0;
  std::uint8_t depth = 0;
};

/// Per-kind totals over every span, kept or not.
struct span_totals {
  std::array<std::uint64_t, k_span_kinds> count{};
  std::array<std::uint64_t, k_span_kinds> total_ns{};
  std::array<std::uint64_t, k_span_kinds> self_ns{};

  void merge(const span_totals& o) {
    for (int k = 0; k < k_span_kinds; ++k) {
      count[k] += o.count[k];
      total_ns[k] += o.total_ns[k];
      self_ns[k] += o.self_ns[k];
    }
  }
  std::uint64_t self_sum() const {
    std::uint64_t s = 0;
    for (const auto v : self_ns) s += v;
    return s;
  }
  template <class A>
  void serialize(A& ar) {
    ar & count & total_ns & self_ns;
  }
};

/// Span stack for one rank. A span's self time is its duration minus the
/// durations of the spans that close inside it (a callback inside send() or
/// wait_empty()), so summing self times over kinds never counts an interval
/// twice. Totals cover every span; only the first `keep` spans are stored
/// for the span file, which bounds memory however long the run is.
class span_recorder {
 public:
  explicit span_recorder(std::size_t keep) { kept_.reserve(keep); }

  void open() noexcept {
    stack_[depth_++] = frame{now_ns(), 0};
  }

  void close(span_kind kind) noexcept {
    const std::uint64_t t1 = now_ns();
    const frame f = stack_[--depth_];
    const std::uint64_t dur = t1 - f.t0;
    const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
    totals_.count[kind] += 1;
    totals_.total_ns[kind] += dur;
    totals_.self_ns[kind] += self;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (kept_.size() < kept_.capacity()) {
      kept_.push_back({f.t0, t1, kind, static_cast<std::uint8_t>(depth_)});
    }
  }

  const span_totals& totals() const noexcept { return totals_; }
  const std::vector<span_event>& kept() const noexcept { return kept_; }

 private:
  struct frame {
    std::uint64_t t0;
    std::uint64_t child_ns;
  };
  std::array<frame, 8> stack_{};
  int depth_ = 0;
  span_totals totals_;
  std::vector<span_event> kept_;
};

// ------------------------------------------------------------ statistics

/// Linearly interpolated quantile of a sample (p in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace ygmbench
