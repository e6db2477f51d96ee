// The repo benchmark program. It drives the public YGM stack from outside —
// ygm::launch_collect -> core::comm_world -> core::mailbox -> routing ->
// mpisim::comm -> transport, plus the apps pipeline — on three fixed 4-rank
// workloads, checks every output, and prints one JSON result line last.
//
//   ygmbench --workload <a2a_small|bulk_local|cc_rmat> --seed <n>
//            --seconds <s> --trace <0|1> [--git-describe <str>]
//            [--spans-out <file>]
//   ygmbench --selftest
//
// --trace 0 reports the end-to-end metrics from an untraced run. --trace 1
// reports the per-layer metrics: it runs an untraced reference segment, a
// traced segment with spans around the calls into each layer, and raw
// transport probes. README.md in this directory lists every metric.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/connected_components.hpp"
#include "apps/degree_count.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/buffer_pool.hpp"
#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "core/packet.hpp"
#include "graph/delegates.hpp"
#include "graph/rmat.hpp"
#include "harness.hpp"
#include "routing/router.hpp"
#include "ser/serialize.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ygm;
using namespace ygmbench;

// ------------------------------------------------------------ workloads

enum class shape { mailbox_stream, cc_pipeline };

/// One benchmark workload. Every field is fixed here; only the seed comes
/// from the command line.
struct workload {
  std::string name;
  shape kind = shape::mailbox_stream;
  transport::backend_kind backend = transport::backend_kind::inproc;
  int nodes = 1;
  int cores = 4;
  routing::scheme_kind scheme = routing::scheme_kind::no_route;
  std::size_t record_bytes = 16;  ///< mailbox_stream: 16 or 1024
  std::uint64_t per_pair = 0;     ///< records each rank sends each peer per batch
  int batches = 0;                ///< per launch; the first is a warm-up
  int rmat_scale = 0;             ///< cc_pipeline: 2^scale vertices, 8x edges
  std::uint64_t delegate_threshold = 0;
  int solves = 0;                 ///< per launch; the first is a warm-up

  int nranks() const { return nodes * cores; }
  std::uint64_t rmat_edges() const { return std::uint64_t{8} << rmat_scale; }
};

workload a2a_small() {
  workload w;
  w.name = "a2a_small";
  w.backend = transport::backend_kind::inproc;
  w.nodes = 2;
  w.cores = 2;
  w.scheme = routing::scheme_kind::node_remote;
  w.record_bytes = 16;
  w.per_pair = 400000;
  w.batches = 3;
  return w;
}

workload bulk_local() {
  workload w;
  w.name = "bulk_local";
  w.backend = transport::backend_kind::shm;
  w.nodes = 1;
  w.cores = 4;
  w.scheme = routing::scheme_kind::no_route;
  w.record_bytes = 1024;
  w.per_pair = 200000;
  w.batches = 3;
  return w;
}

workload cc_rmat() {
  workload w;
  w.name = "cc_rmat";
  w.kind = shape::cc_pipeline;
  w.backend = transport::backend_kind::socket;
  w.nodes = 2;
  w.cores = 2;
  w.scheme = routing::scheme_kind::node_remote;
  w.rmat_scale = 16;
  w.delegate_threshold = 256;
  w.solves = 4;
  return w;
}

std::optional<workload> find_workload(std::string_view name) {
  for (auto w : {a2a_small(), bulk_local(), cc_rmat()}) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// Selftest size: the same workload, a few milliseconds of work.
workload shrunk(workload w) {
  w.per_pair = std::max<std::uint64_t>(w.per_pair / 100, 100);
  w.batches = std::min(w.batches, 2);
  w.rmat_scale = std::min(w.rmat_scale, 10);
  w.delegate_threshold = std::min<std::uint64_t>(w.delegate_threshold, 32);
  w.solves = std::min(w.solves, 2);
  return w;
}

// ------------------------------------------------------- pinned options

constexpr std::size_t kCreditBytes = std::size_t{1} << 20;
constexpr std::size_t kOutqCapBytes = std::size_t{4} << 20;
/// Causal sampling in the traced segment only, so the existing live
/// e2e/flush sketches have samples to report.
constexpr double kTracedSample = 1.0 / 256;
/// Spans kept per rank per launch for the span file (totals cover all).
constexpr std::size_t kKeptSpans = 1024;

/// Every run_options field set by value, so no YGM_* variable in the
/// environment changes what is measured.
ygm::run_options pinned_options(const workload& w, bool traced) {
  ygm::run_options o;
  o.nranks = w.nranks();
  o.backend = w.backend;
  o.chaos = mpisim::chaos_config{};
  o.socket_dir = "";
  o.progress_mode = progress::mode::polling;
  o.trace_sample = traced ? kTracedSample : 0.0;
  o.virtual_network.reset();
  o.credit_bytes = kCreditBytes;
  o.outq_cap_bytes = kOutqCapBytes;
  o.sample_ms = 0;
  o.statusz = 0;
  return o;
}

void print_pinned(const workload& w) {
  const auto o = pinned_options(w, false);
  std::printf(
      "# pinned workload=%s backend=%s topology=%dx%d scheme=%s nranks=%d "
      "nproc=%u chaos=off progress=polling trace_sample=0 (traced segment "
      "%.6g) credit_bytes=%zu outq_cap_bytes=%zu sample_ms=%d statusz=%d "
      "mailbox_capacity=%zu\n",
      w.name.c_str(), std::string(transport::to_string(*o.backend)).c_str(),
      w.nodes, w.cores, std::string(routing::to_string(w.scheme)).c_str(),
      o.nranks, std::thread::hardware_concurrency(), kTracedSample,
      *o.credit_bytes, *o.outq_cap_bytes, o.sample_ms, o.statusz,
      core::default_mailbox_capacity);
}

// ---------------------------------------------------------------- records

/// a2a_small record: send timestamp + (source, per-destination sequence).
struct small_rec {
  std::uint64_t sent_ns = 0;
  std::uint64_t tag = 0;
};
/// bulk_local record: the same header plus a seeded payload.
struct bulk_rec {
  std::uint64_t sent_ns = 0;
  std::uint64_t tag = 0;
  std::array<std::byte, 1008> payload{};
};
static_assert(sizeof(small_rec) == 16 && sizeof(bulk_rec) == 1024);

constexpr int kSeqBits = 40;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

std::uint64_t make_tag(int src, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(src) << kSeqBits) | seq;
}

/// The seeded payload every bulk record carries; its first word is XORed
/// with the record's tag so each record's bytes differ.
std::array<std::byte, 1008> payload_block(std::uint64_t seed) {
  std::array<std::byte, 1008> b{};
  xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < b.size(); i += 8) {
    const std::uint64_t v = rng();
    std::memcpy(b.data() + i, &v, 8);
  }
  return b;
}

// ------------------------------------------------------------ rank output

/// What one rank reports from one launch.
struct rank_out {
  std::uint64_t setup_end_ns = 0;
  std::vector<std::uint64_t> unit_t0;       ///< measured units only
  std::vector<std::uint64_t> unit_t1;
  std::vector<std::uint64_t> unit_records;  ///< deliveries here per unit
  std::uint64_t units_all = 0;              ///< including warm-up
  std::uint64_t waits = 0;     ///< wait_empty() calls, including warm-up
  std::uint64_t expected = 0;  ///< deliveries (stream) or vertices (cc)
  std::uint64_t failed = 0;    ///< missing + duplicated + corrupt / mislabelled
  latency_histogram hist;      ///< measured units only
  std::uint64_t cpu_ns = 0;    ///< measured units
  std::uint64_t span_wall_ns = 0;  ///< every unit (spans cover all of them)
  std::int64_t maxrss_kb = 0;
  core::mailbox_stats stats;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  span_totals spans;
  std::vector<span_event> kept;
  std::int32_t passes = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t delegates = 0;
  std::vector<graph::vertex_id> labels;  ///< cc: first solve's local labels

  template <class A>
  void serialize(A& ar) {
    ar & setup_end_ns & unit_t0 & unit_t1 & unit_records & units_all &
        waits & expected & failed & hist & cpu_ns & span_wall_ns &
        maxrss_kb & stats & pool_hits & pool_misses & spans & kept & passes &
        broadcasts & delegates & labels;
  }
};

std::int64_t self_maxrss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void finish_rank(rank_out& out, const core::buffer_pool& pool,
                 std::uint64_t hits0, std::uint64_t misses0,
                 const span_recorder& spans) {
  out.pool_hits = pool.hits() - hits0;
  out.pool_misses = pool.misses() - misses0;
  out.spans = spans.totals();
  out.kept = spans.kept();
  out.maxrss_kb = self_maxrss_kb();
}

// ------------------------------------------------------- mailbox stream

template <class Rec, bool Traced>
rank_out stream_rank(mpisim::comm& c, const workload& w, std::uint64_t seed) {
  constexpr bool kBulk = std::is_same_v<Rec, bulk_rec>;
  pin_to_cpu(c.rank());
  rank_out out;
  auto& pool = core::buffer_pool::local();
  const std::uint64_t hits0 = pool.hits(), misses0 = pool.misses();
  const routing::topology topo(w.nodes, w.cores);
  core::comm_world world(c, topo, w.scheme);
  const int me = c.rank();
  const int p = c.size();
  std::vector<int> dests;
  for (int k = 1; k < p; ++k) dests.push_back((me + k) % p);
  const auto block = payload_block(seed);
  std::uint64_t block_word0 = 0;
  std::memcpy(&block_word0, block.data(), 8);

  delivery_ledger ledger(p, w.per_pair);
  span_recorder spans(Traced ? kKeptSpans : 0);
  bool measuring = false;
  std::uint64_t corrupt = 0;
  std::uint64_t delivered = 0;
  const auto on_recv = [&](const Rec& r) {
    if constexpr (Traced) spans.open();
    const std::uint64_t t = now_ns();
    if (measuring) out.hist.record(t - r.sent_ns);
    ledger.note(static_cast<int>(r.tag >> kSeqBits), r.tag & kSeqMask);
    if constexpr (kBulk) {
      std::uint64_t w0 = 0;
      std::memcpy(&w0, r.payload.data(), 8);
      if ((w0 ^ r.tag) != block_word0 ||
          std::memcmp(r.payload.data() + 8, block.data() + 8,
                      block.size() - 8) != 0) {
        ++corrupt;
      }
    }
    ++delivered;
    if constexpr (Traced) spans.close(k_callback);
  };
  core::mailbox<Rec> mb(world, on_recv, core::default_mailbox_capacity);
  Rec rec{};
  if constexpr (kBulk) rec.payload = block;
  c.barrier();
  out.setup_end_ns = now_ns();

  for (int b = 0; b < w.batches; ++b) {
    measuring = b > 0;
    delivered = 0;
    c.barrier();
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < w.per_pair; ++i) {
      for (const int d : dests) {
        rec.tag = make_tag(me, i);
        if constexpr (kBulk) {
          const std::uint64_t w0 = block_word0 ^ rec.tag;
          std::memcpy(rec.payload.data(), &w0, 8);
        }
        rec.sent_ns = now_ns();
        if constexpr (Traced) {
          const std::uint64_t flushes = mb.stats().flushes;
          spans.open();
          mb.send(d, rec);
          spans.close(mb.stats().flushes != flushes ? k_exchange : k_send);
        } else {
          mb.send(d, rec);
        }
      }
    }
    if constexpr (Traced) spans.open();
    mb.wait_empty();
    if constexpr (Traced) spans.close(k_wait_empty);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t cpu1 = thread_cpu_ns();
    out.failed += ledger.finish_batch(p - 1) + corrupt;
    corrupt = 0;
    out.expected += static_cast<std::uint64_t>(p - 1) * w.per_pair;
    ++out.units_all;
    ++out.waits;
    out.span_wall_ns += t1 - t0;
    if (measuring) {
      out.unit_t0.push_back(t0);
      out.unit_t1.push_back(t1);
      out.unit_records.push_back(delivered);
      out.cpu_ns += cpu1 - cpu0;
    }
  }
  out.stats = mb.stats();
  finish_rank(out, pool, hits0, misses0, spans);
  return out;
}

// ---------------------------------------------------------- CC pipeline

/// degree_count's generator interface over an edge list already in memory.
struct edge_list_source {
  const std::vector<graph::edge>* edges;
  graph::vertex_id n;
  graph::vertex_id num_vertices() const noexcept { return n; }
  template <class F>
  void for_each(F&& fn) const {
    for (const auto& e : *edges) fn(e);
  }
};

template <bool Traced>
rank_out cc_rank(mpisim::comm& c, const workload& w, std::uint64_t seed) {
  pin_to_cpu(c.rank());
  rank_out out;
  auto& pool = core::buffer_pool::local();
  const std::uint64_t hits0 = pool.hits(), misses0 = pool.misses();
  const routing::topology topo(w.nodes, w.cores);
  core::comm_world world(c, topo, w.scheme);
  const graph::rmat_generator gen(w.rmat_scale, w.rmat_edges(),
                                  graph::rmat_params::graph500(), seed,
                                  c.rank(), c.size());
  std::vector<graph::edge> mine;
  mine.reserve(gen.local_edge_count());
  gen.for_each([&](const graph::edge& e) { mine.push_back(e); });
  const edge_list_source src{&mine, gen.num_vertices()};
  const graph::round_robin_partition part{c.size()};
  span_recorder spans(Traced ? kKeptSpans : 0);
  c.barrier();
  out.setup_end_ns = now_ns();

  for (int s = 0; s < w.solves; ++s) {
    c.barrier();
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t t0 = now_ns();
    if constexpr (Traced) spans.open();
    const auto deg = apps::degree_count(world, src);
    if constexpr (Traced) spans.close(k_degree_count);
    if constexpr (Traced) spans.open();
    const auto delegates = graph::select_delegates(
        world, deg.local_degrees, part, w.delegate_threshold);
    if constexpr (Traced) spans.close(k_select_delegates);
    if constexpr (Traced) spans.open();
    const auto res = apps::connected_components(world, mine, gen.num_vertices(),
                                                delegates);
    if constexpr (Traced) spans.close(k_connected_components);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t cpu1 = thread_cpu_ns();

    if (s == 0) {
      out.labels = res.local_labels;
    } else {
      for (std::size_t i = 0; i < out.labels.size(); ++i) {
        if (i >= res.local_labels.size() ||
            res.local_labels[i] != out.labels[i]) {
          ++out.failed;
        }
      }
    }
    out.expected += res.local_labels.size();
    out.passes = res.passes;
    out.broadcasts += res.broadcasts;
    out.delegates = delegates.size();
    out.stats += deg.stats;
    out.stats += res.stats;
    ++out.units_all;
    // degree_count's one call, CC's ingest one, then two per pass.
    out.waits += 2 + 2 * static_cast<std::uint64_t>(res.passes);
    out.span_wall_ns += t1 - t0;
    if (s > 0) {
      out.unit_t0.push_back(t0);
      out.unit_t1.push_back(t1);
      out.unit_records.push_back(deg.stats.deliveries + res.stats.deliveries);
      out.cpu_ns += cpu1 - cpu0;
    }
  }
  finish_rank(out, pool, hits0, misses0, spans);
  return out;
}

// ------------------------------------------------------------- segments

/// The serial oracle's labels for one (workload, seed), built once.
std::vector<graph::vertex_id> oracle_labels(const workload& w,
                                            std::uint64_t seed) {
  std::vector<graph::edge> all;
  for (int r = 0; r < w.nranks(); ++r) {
    const graph::rmat_generator gen(w.rmat_scale, w.rmat_edges(),
                                    graph::rmat_params::graph500(), seed, r,
                                    w.nranks());
    gen.for_each([&](const graph::edge& e) { all.push_back(e); });
  }
  return apps::connected_components_reference(
      graph::vertex_id{1} << w.rmat_scale, all);
}

/// Mislabelled vertices of one rank's first-solve labels.
std::uint64_t mislabelled(const std::vector<graph::vertex_id>& oracle,
                          int rank, int nranks,
                          const std::vector<graph::vertex_id>& labels) {
  const graph::round_robin_partition part{nranks};
  const std::uint64_t n = part.local_count(rank, oracle.size());
  std::uint64_t bad = labels.size() == n ? 0 : n;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(n, labels.size());
       ++i) {
    if (labels[i] != oracle[part.global_id(rank, i)]) ++bad;
  }
  return bad;
}

/// Everything measured over the launches of one segment.
struct segment {
  std::vector<double> unit_s;        ///< wall of each measured unit
  std::vector<double> unit_records;  ///< deliveries in each measured unit
  std::vector<double> setup_s;       ///< one per launch
  std::uint64_t latency_samples = 0;  ///< measured units
  std::vector<double> launch_p50_ns;  ///< per launch, measured units
  std::vector<double> launch_p99_ns;
  std::vector<double> launch_rss_kb;  ///< max over the launch's ranks
  std::uint64_t expected = 0;
  std::uint64_t failed = 0;
  double cpu_s = 0;
  double wall_s = 0;
  double span_wall_s = 0;
  std::uint64_t units_all = 0;
  std::uint64_t waits = 0;  ///< wait_empty() calls, all ranks
  core::mailbox_stats stats;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  span_totals spans;
  std::vector<std::pair<int, span_event>> kept;  ///< (rank, span)
  double passes = 0;      ///< of the last launch (rank 0)
  double broadcasts = 0;  ///< per solve, all ranks
  double delegates = 0;
  int launches = 0;
  /// Traced segments: the library's own counters and sketches, and its
  /// `mailbox.wait_empty` spans that the event rings still held at the end
  /// of each launch (the rings overwrite their oldest events).
  telemetry::metrics_registry lib_metrics;
  double lib_wait_empty_us = 0;
  std::uint64_t lib_wait_empty_spans = 0;
};

/// A telemetry session installed as the global one for its lifetime.
class scoped_session {
 public:
  scoped_session() { telemetry::set_global(&session_); }
  ~scoped_session() { telemetry::set_global(nullptr); }
  scoped_session(const scoped_session&) = delete;
  scoped_session& operator=(const scoped_session&) = delete;

  /// Fold this session's metrics and retained wait_empty spans into `seg`.
  void collect(segment& seg) const {
    seg.lib_metrics.merge(session_.merged_metrics());
    session_.visit_lanes([&](const telemetry::recorder& rec) {
      const auto& names = rec.names();
      rec.ring().for_each([&](const telemetry::trace_event& e) {
        if (e.kind == telemetry::event_kind::complete &&
            e.name < names.size() && names[e.name] == "mailbox.wait_empty") {
          seg.lib_wait_empty_us += e.dur_us;
          ++seg.lib_wait_empty_spans;
        }
      });
    });
  }

 private:
  telemetry::session session_;
};

using rank_fn = rank_out (*)(mpisim::comm&, const workload&, std::uint64_t);

template <bool Traced>
rank_fn pick_rank_fn(const workload& w) {
  if (w.kind == shape::cc_pipeline) return &cc_rank<Traced>;
  if (w.record_bytes == sizeof(bulk_rec)) return &stream_rank<bulk_rec, Traced>;
  return &stream_rank<small_rec, Traced>;
}

/// The launch_collect call time and the ranks' blobs of one launch.
using launch_result = std::pair<std::uint64_t, std::vector<std::vector<std::byte>>>;

launch_result timed_launch(const ygm::run_options& opts,
                           const std::function<std::vector<std::byte>(mpisim::comm&)>& fn) {
  const std::uint64_t t_call = now_ns();
  return {t_call, ygm::launch_collect(opts, fn)};
}

/// An inproc launch run in a forked child of the benchmark, so that on
/// every backend each launch's ranks live in fresh processes: ru_maxrss
/// is then per launch, and heap layout varies from launch to launch
/// instead of staying fixed for a whole run. The child ships its result
/// back over a pipe.
launch_result launch_in_child(
    const ygm::run_options& opts,
    const std::function<std::vector<std::byte>(mpisim::comm&)>& fn) {
  int fds[2];
  YGM_CHECK(::pipe(fds) == 0, "pipe failed");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  YGM_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const auto bytes = ser::to_bytes(timed_launch(opts, fn));
      const std::byte* p = bytes.data();
      std::size_t n = bytes.size();
      while (n > 0) {
        const ssize_t w = ::write(fds[1], p, n);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) break;
        p += w;
        n -= static_cast<std::size_t>(w);
      }
      code = n == 0 ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ygmbench: launch failed: %s\n", e.what());
      code = 1;
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::vector<std::byte> bytes;
  std::array<std::byte, 1 << 16> chunk;
  for (;;) {
    const ssize_t r = ::read(fds[0], chunk.data(), chunk.size());
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + r);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  YGM_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "launch child failed");
  return ser::from_bytes<launch_result>({bytes.data(), bytes.size()});
}

/// Launch the workload repeatedly until `budget_s` has passed (and at
/// least `min_launches` times); each launch sets up from scratch. Untraced
/// inproc launches run in a child process (see launch_in_child). Traced
/// ones stay in this process under a telemetry session of their own, so a
/// finished launch's event rings are freed before the next one starts.
template <bool Traced>
segment run_segment(const workload& w, std::uint64_t seed, double budget_s,
                    int min_launches,
                    const std::vector<graph::vertex_id>* oracle) {
  segment seg;
  const rank_fn fn = pick_rank_fn<Traced>(w);
  const ygm::run_options opts = pinned_options(w, Traced);
  const std::uint64_t start = now_ns();
  double last_launch_s = 0;
  for (;;) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (seg.launches >= min_launches && elapsed + last_launch_s > budget_s) {
      break;
    }
    const std::uint64_t t_start = now_ns();
    const auto body = [&](mpisim::comm& c) {
      return ser::to_bytes(fn(c, w, seed));
    };
    std::optional<scoped_session> session;
    if constexpr (Traced) session.emplace();
    const auto [t_launch, blobs] =
        !Traced && w.backend == transport::backend_kind::inproc
            ? launch_in_child(opts, body)
            : timed_launch(opts, body);
    if constexpr (Traced) {
      session->collect(seg);
      session.reset();
    }
    last_launch_s = static_cast<double>(now_ns() - t_start) * 1e-9;
    ++seg.launches;

    std::vector<rank_out> outs;
    for (const auto& b : blobs) {
      outs.push_back(ser::from_bytes<rank_out>({b.data(), b.size()}));
    }
    std::uint64_t setup_end = 0;
    latency_histogram launch_hist;
    std::int64_t launch_rss_kb = 0;
    for (int r = 0; r < static_cast<int>(outs.size()); ++r) {
      const auto& o = outs[static_cast<std::size_t>(r)];
      setup_end = std::max(setup_end, o.setup_end_ns);
      launch_hist.merge(o.hist);
      launch_rss_kb = std::max(launch_rss_kb, o.maxrss_kb);
      seg.waits += o.waits;
      seg.expected += o.expected;
      seg.failed += o.failed;
      seg.cpu_s += static_cast<double>(o.cpu_ns) * 1e-9;
      seg.span_wall_s += static_cast<double>(o.span_wall_ns) * 1e-9;
      seg.stats += o.stats;
      seg.pool_hits += o.pool_hits;
      seg.pool_misses += o.pool_misses;
      seg.spans.merge(o.spans);
      for (const auto& e : o.kept) seg.kept.emplace_back(r, e);
      seg.broadcasts += static_cast<double>(o.broadcasts);
      if (oracle != nullptr) {
        seg.failed += mislabelled(*oracle, r, w.nranks(), o.labels);
      }
    }
    seg.latency_samples += launch_hist.count();
    seg.launch_p50_ns.push_back(launch_hist.percentile(0.50));
    seg.launch_p99_ns.push_back(launch_hist.percentile(0.99));
    seg.launch_rss_kb.push_back(static_cast<double>(launch_rss_kb));
    seg.units_all += outs[0].units_all;
    seg.setup_s.push_back(static_cast<double>(setup_end - t_launch) * 1e-9);
    seg.passes = outs[0].passes;
    seg.delegates = static_cast<double>(outs[0].delegates);
    // A unit runs from the first rank's first send (or call) after the
    // start barrier to the last rank's return from wait_empty (or CC).
    const std::size_t units = outs[0].unit_t0.size();
    std::printf("# %s launch %d setup_s=%.6f p50_us=%.1f p99_us=%.1f "
                "rss_mb=%.2f unit_s=",
                w.name.c_str(), seg.launches, seg.setup_s.back(),
                seg.launch_p50_ns.back() * 1e-3,
                seg.launch_p99_ns.back() * 1e-3, launch_rss_kb / 1024.0);
    for (std::size_t u = 0; u < units; ++u) {
      std::uint64_t t0 = UINT64_MAX, t1 = 0;
      double records = 0;
      for (const auto& o : outs) {
        t0 = std::min(t0, o.unit_t0[u]);
        t1 = std::max(t1, o.unit_t1[u]);
        records += static_cast<double>(o.unit_records[u]);
      }
      const double s = static_cast<double>(t1 - t0) * 1e-9;
      seg.unit_s.push_back(s);
      seg.unit_records.push_back(records);
      seg.wall_s += s;
      std::printf("%s%.6f", u == 0 ? "" : ",", s);
    }
    std::printf("\n");
  }
  if (seg.units_all != 0) {
    seg.broadcasts /= static_cast<double>(seg.units_all);
  }
  return seg;
}

double seg_msgs_per_s(const segment& s) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < s.unit_s.size(); ++i) {
    rates.push_back(s.unit_records[i] / s.unit_s[i]);
  }
  return median(rates);
}

// ------------------------------------------------------------- probes

/// Time `fn` over enough repetitions to fill ~`budget_s`; returns ns per
/// call of the inner loop body (fn returns how many it performed).
template <class F>
double time_per_op_ns(double budget_s, F&& fn) {
  std::uint64_t ops = 0;
  const std::uint64_t start = now_ns();
  std::uint64_t end = start;
  while (static_cast<double>(end - start) * 1e-9 < budget_s) {
    ops += fn();
    end = now_ns();
  }
  return static_cast<double>(end - start) / static_cast<double>(ops);
}

volatile std::uint64_t g_sink = 0;

/// ns per ser::append_bytes of the workload's record.
double probe_ser_ns(const workload& w, double budget_s) {
  std::vector<std::byte> buf;
  buf.reserve(1 << 20);
  const auto run = [&](const auto& rec) {
    return time_per_op_ns(budget_s, [&] {
      buf.clear();
      for (int i = 0; i < 512; ++i) ser::append_bytes(rec, buf);
      g_sink = g_sink + buf.size();
      return std::uint64_t{512};
    });
  };
  if (w.kind == shape::cc_pipeline) {
    // apps::connected_components' label record: (vertex, label).
    return run(std::pair<graph::vertex_id, graph::vertex_id>{12345, 678});
  }
  if (w.record_bytes == sizeof(bulk_rec)) return run(bulk_rec{});
  return run(small_rec{});
}

/// ns per router::next_hop over every (src, dst) pair of the topology.
double probe_routing_ns(const workload& w, double budget_s) {
  const routing::router r(w.scheme, routing::topology(w.nodes, w.cores));
  const int p = w.nranks();
  return time_per_op_ns(budget_s, [&] {
    std::uint64_t acc = 0, n = 0;
    for (int rep = 0; rep < 256; ++rep) {
      for (int s = 0; s < p; ++s) {
        for (int d = 0; d < p; ++d) {
          if (s == d) continue;
          acc += static_cast<std::uint64_t>(r.next_hop(s, d));
          ++n;
        }
      }
    }
    g_sink = g_sink + acc;
    return n;
  });
}

/// ns per record for packet_reader over a 256 KiB packet_append-built
/// packet of the workload's records.
double probe_parse_ns(const workload& w, double budget_s) {
  std::vector<std::byte> payload(
      w.kind == shape::cc_pipeline ? 16 : w.record_bytes, std::byte{7});
  std::vector<std::byte> packet;
  std::uint64_t records = 0;
  while (packet.size() < core::default_mailbox_capacity) {
    core::packet_append(packet, false, static_cast<int>(records % 4), payload);
    ++records;
  }
  return time_per_op_ns(budget_s, [&] {
    core::packet_reader rd({packet.data(), packet.size()});
    std::uint64_t acc = 0;
    while (!rd.done()) {
      const auto rec = rd.next();
      acc += static_cast<std::uint64_t>(rec.addr) + rec.payload.size();
    }
    g_sink = g_sink + acc;
    return records;
  });
}

struct transport_probe {
  double post_us = 0;
  double gb_per_s = 0;
  double rtt_us = 0;
};

/// Raw comm::send_bytes/recv_bytes between ranks 0 and 1 on the
/// workload's backend: a stream of `packet_bytes` frames, then a ping-pong
/// of 8-byte frames. The other ranks wait at the closing barrier.
transport_probe probe_transport(const workload& w, std::size_t packet_bytes) {
  constexpr int kTag = 7;
  constexpr std::size_t kStreamBytes = std::size_t{64} << 20;
  constexpr int kPingPongs = 2000;
  const std::uint64_t frames =
      std::max<std::uint64_t>(64, kStreamBytes / packet_bytes);
  const auto blobs = ygm::launch_collect(
      pinned_options(w, false), [&](mpisim::comm& c) {
        pin_to_cpu(c.rank());
        auto& pool = core::buffer_pool::local();
        std::vector<double> r;
        c.barrier();
        if (c.rank() == 0) {
          const std::uint64_t t0 = now_ns();
          for (std::uint64_t i = 0; i < frames; ++i) {
            auto buf = pool.acquire(packet_bytes);
            buf.resize(packet_bytes);
            c.send_bytes(1, kTag, std::move(buf));
          }
          const std::uint64_t t_posted = now_ns();
          pool.release(c.recv_bytes(1, kTag));  // stream fully received
          const std::uint64_t t_done = now_ns();
          const std::uint64_t p0 = now_ns();
          for (int i = 0; i < kPingPongs; ++i) {
            auto buf = pool.acquire(8);
            buf.resize(8);
            c.send_bytes(1, kTag, std::move(buf));
            pool.release(c.recv_bytes(1, kTag));
          }
          const std::uint64_t p1 = now_ns();
          r = {static_cast<double>(t_posted - t0) * 1e-3 /
                   static_cast<double>(frames),
               static_cast<double>(frames * packet_bytes) /
                   static_cast<double>(t_done - t0),
               static_cast<double>(p1 - p0) * 1e-3 / kPingPongs};
        } else if (c.rank() == 1) {
          for (std::uint64_t i = 0; i < frames; ++i) {
            pool.release(c.recv_bytes(0, kTag));
          }
          auto ack = pool.acquire(8);
          ack.resize(8);
          c.send_bytes(0, kTag, std::move(ack));
          for (int i = 0; i < kPingPongs; ++i) {
            auto buf = c.recv_bytes(0, kTag);
            c.send_bytes(0, kTag, std::move(buf));
          }
        }
        c.barrier();
        return ser::to_bytes(r);
      });
  const auto r = ser::from_bytes<std::vector<double>>(
      {blobs[0].data(), blobs[0].size()});
  return {r[0], r[1], r[2]};
}

// ------------------------------------------------------------- reporting

struct metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

void print_stamp(const std::string& git) {
#ifdef YGM_TELEMETRY_DISABLED
  constexpr const char* telemetry = "OFF";
#else
  constexpr const char* telemetry = "ON";
#endif
  std::printf("# stamp nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s "
              "YGM_TELEMETRY=%s git=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              __VERSION__, YGMBENCH_BUILD_TYPE, telemetry, git.c_str());
}

void print_segment(const char* label, const segment& s) {
  std::printf("# %s launches=%d units=%zu records=%.0f latency_samples=%llu "
              "expected=%llu failed=%llu failed_ratio=%.3g\n",
              label, s.launches, s.unit_s.size(),
              [&] {
                double t = 0;
                for (const double r : s.unit_records) t += r;
                return t;
              }(),
              static_cast<unsigned long long>(s.latency_samples),
              static_cast<unsigned long long>(s.expected),
              static_cast<unsigned long long>(s.failed),
              ratio(static_cast<double>(s.failed),
                    static_cast<double>(s.expected)));
}

/// Send-to-callback latency percentile: the median over launches of each
/// launch's percentile, so one launch hit by a host hiccup moves the result
/// by at most one place in the order. A CC query's latency is its
/// pipeline's wall time, taken over all solves.
double latency_us(const workload& w, const segment& s, double p) {
  if (w.kind == shape::cc_pipeline) return quantile(s.unit_s, p) * 1e6;
  return median(p == 0.50 ? s.launch_p50_ns : s.launch_p99_ns) * 1e-3;
}

/// End-to-end metrics (--trace 0). Every workload reports every metric;
/// README.md gives each one's definition per workload shape.
int run_untraced(const workload& w, std::uint64_t seed, double seconds) {
  std::optional<std::vector<graph::vertex_id>> oracle;
  if (w.kind == shape::cc_pipeline) oracle = oracle_labels(w, seed);
  const segment s = run_segment<false>(w, seed, seconds, 3,
                                       oracle ? &*oracle : nullptr);
  print_segment("run", s);
  std::vector<metric> ms;
  const double solve_s = median(s.unit_s);
  ms.push_back({"msgs_per_s", seg_msgs_per_s(s), "1/s"});
  ms.push_back({"solve_s", solve_s, "s"});
  ms.push_back({"setup_s", median(s.setup_s), "s"});
  ms.push_back({"peak_rss_mb", median(s.launch_rss_kb) / 1024.0, "MB"});
  std::printf("# failed_ratio=%.6g (missing+duplicated+corrupt deliveries, or "
              "mislabelled vertices, over expected)\n",
              ratio(static_cast<double>(s.failed),
                    static_cast<double>(s.expected)));
  print_result(s.failed == 0 && s.expected > 0 && !s.unit_s.empty(),
               s.expected, s.failed, ms);
  return 0;
}

std::uint64_t counter(const telemetry::metrics_registry& m,
                      const std::string& name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second;
}

/// p50/p99 (us) of one existing live sketch summed over routing schemes.
std::pair<double, double> sketch_p(const telemetry::metrics_registry& m,
                                   telemetry::live::latency_kind k) {
  telemetry::histogram h;
  for (unsigned s = 0; s < telemetry::live::kSchemes; ++s) {
    const auto it = m.histos().find(telemetry::live::sketch_metric_name(s, k));
    if (it != m.histos().end()) h.merge(it->second);
  }
  return {h.percentile(0.50), h.percentile(0.99)};
}

void write_spans(const std::string& path, const segment& s) {
  std::ofstream out(path);
  if (!out) {
    std::printf("# spans: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  std::uint64_t base = UINT64_MAX;
  for (const auto& [r, e] : s.kept) base = std::min(base, e.t0_ns);
  bool first = true;
  char line[256];
  for (const auto& [r, e] : s.kept) {
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                  first ? "" : ",\n", span_name(e.kind), r,
                  static_cast<double>(e.t0_ns - base) * 1e-3,
                  static_cast<double>(e.t1_ns - e.t0_ns) * 1e-3, e.depth);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  std::printf("# spans: %zu kept spans written to %s\n", s.kept.size(),
              path.c_str());
}

/// Per-layer metrics (--trace 1). A metric of a layer the workload does not
/// call (mailbox-call spans on cc_rmat, the apps pipeline on the mailbox
/// workloads, counters of another backend) reads 0.
int run_traced(const workload& w, std::uint64_t seed, double seconds,
               const std::string& spans_out) {
  const bool cc = w.kind == shape::cc_pipeline;
  std::optional<std::vector<graph::vertex_id>> oracle;
  if (cc) oracle = oracle_labels(w, seed);
  const double probe_s = 0.05;
  const double ser_ns = probe_ser_ns(w, probe_s);
  const double route_ns = probe_routing_ns(w, probe_s);
  const double parse_ns = probe_parse_ns(w, probe_s);

  const segment ref = run_segment<false>(w, seed, 0.3 * seconds, 1,
                                         oracle ? &*oracle : nullptr);
  print_segment("reference", ref);

  const segment tr = run_segment<true>(w, seed, 0.55 * seconds, 1,
                                      oracle ? &*oracle : nullptr);
  print_segment("traced", tr);
  const telemetry::metrics_registry& m = tr.lib_metrics;

  const double avg_packet = ratio(
      static_cast<double>(tr.stats.local_bytes + tr.stats.remote_bytes),
      static_cast<double>(tr.stats.local_packets + tr.stats.remote_packets));
  const auto tp = probe_transport(
      w, static_cast<std::size_t>(std::clamp(avg_packet, 64.0, 262144.0)));
  std::printf("# transport probe packet_bytes=%.0f\n", avg_packet);

  const auto& sp = tr.spans;
  const auto per = [](std::uint64_t v, std::uint64_t n) {
    return ratio(static_cast<double>(v), static_cast<double>(n));
  };
  const double units = static_cast<double>(tr.units_all);
  const auto per_unit = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), units);
  };
  const std::string kind(transport::to_string(w.backend));
  const std::string tp_prefix = "transport." + kind + ".";

  std::vector<metric> ms;
  ms.push_back({"latency_p50_us", latency_us(w, ref, 0.50), "us"});
  ms.push_back({"latency_p99_us", latency_us(w, ref, 0.99), "us"});
  ms.push_back({"ser.append_ns", ser_ns, "ns"});
  ms.push_back({"routing.next_hop_ns", route_ns, "ns"});
  ms.push_back({"core.send_ns", per(sp.self_ns[k_send], sp.count[k_send]), "ns"});
  ms.push_back({"core.exchange_us",
                per(sp.self_ns[k_exchange], sp.count[k_exchange]) * 1e-3, "us"});
  const std::uint64_t sends = sp.count[k_send] + sp.count[k_exchange];
  ms.push_back({"core.exchanges", per(sp.count[k_exchange], sends) * 1e6,
                "count/Mmsg"});
  ms.push_back({"core.packet_parse_ns", parse_ns, "ns"});
  ms.push_back({"core.records_per_packet",
                per(tr.stats.hops_sent,
                    tr.stats.local_packets + tr.stats.remote_packets),
                "count"});
  ms.push_back({"core.forwards_per_delivery",
                per(tr.stats.forwards, tr.stats.deliveries), "ratio"});
  ms.push_back({"core.pool_hit_ratio",
                per(tr.pool_hits, tr.pool_hits + tr.pool_misses), "ratio"});
  ms.push_back({"core.allocs_per_msg", per(tr.pool_misses, tr.stats.deliveries),
                "ratio"});
  ms.push_back({"core.credit_stalls_per_mmsg",
                per(tr.stats.credit_stalls, tr.stats.app_sends) * 1e6,
                "count/Mmsg"});
  // Wait-empty self time: the benchmark's own spans on the mailbox
  // workloads; on cc_rmat the calls are inside the apps, so the existing
  // mailbox.wait_empty telemetry spans stand in. term.rounds sums every
  // rank's rounds, and so does the call count.
  const double wait_ms =
      cc ? ratio(tr.lib_wait_empty_us,
                 static_cast<double>(tr.lib_wait_empty_spans)) * 1e-3
         : per(sp.self_ns[k_wait_empty], sp.count[k_wait_empty]) * 1e-6;
  ms.push_back({"core.wait_empty_ms", wait_ms, "ms"});
  ms.push_back({"core.term_rounds_per_wait",
                per(counter(m, "term.rounds"), tr.waits), "count"});
  ms.push_back({"transport.post_us", tp.post_us, "us"});
  ms.push_back({"transport.gb_per_s", tp.gb_per_s, "GB/s"});
  ms.push_back({"transport.rtt_us", tp.rtt_us, "us"});
  ms.push_back({"transport.posts", per_unit(counter(m, tp_prefix + "posts")),
                "count/unit"});
  ms.push_back({"transport.post_bytes",
                per_unit(counter(m, tp_prefix + "post_bytes")), "B/unit"});
  ms.push_back({"transport.iprobe_hit_ratio",
                per(counter(m, "mpi.recvs"),
                    counter(m, tp_prefix + "iprobe_calls")),
                "ratio"});
  ms.push_back({"transport.shm.ring_full_stalls",
                per_unit(counter(m, "transport.shm.ring_full_stalls")),
                "count/unit"});
  ms.push_back({"transport.shm.futex_parks",
                per_unit(counter(m, "transport.shm.futex_parks")),
                "count/unit"});
  const std::uint64_t spill = counter(m, "transport.shm.spill_tx_bytes");
  ms.push_back({"transport.shm.spill_share",
                per(spill, spill + counter(m, "transport.shm.ring_tx_bytes")),
                "ratio"});
  ms.push_back({"transport.socket.sendmsg_calls",
                per_unit(counter(m, "transport.socket.wire_sendmsg_calls")),
                "count/unit"});
  ms.push_back({"transport.socket.partial_sends",
                per_unit(counter(m, "transport.socket.wire_partial_sends")),
                "count/unit"});
  ms.push_back({"transport.outq_stalls",
                per_unit(counter(m, tp_prefix + "outq_stalls")),
                "count/unit"});
  ms.push_back({"mpisim.collectives", per_unit(counter(m, "mpi.collectives")),
                "count/unit"});
  ms.push_back({"mpisim.cpu_util", ratio(tr.cpu_s, tr.wall_s), "ratio"});
  ms.push_back({"apps.callback_ns",
                per(sp.self_ns[k_callback], sp.count[k_callback]), "ns"});
  ms.push_back({"apps.degree_count_s",
                per(sp.self_ns[k_degree_count], sp.count[k_degree_count]) * 1e-9,
                "s"});
  ms.push_back({"apps.select_delegates_s",
                per(sp.self_ns[k_select_delegates],
                    sp.count[k_select_delegates]) * 1e-9,
                "s"});
  ms.push_back({"apps.connected_components_s",
                per(sp.self_ns[k_connected_components],
                    sp.count[k_connected_components]) * 1e-9,
                "s"});
  ms.push_back({"apps.cc_passes", tr.passes, "count"});
  ms.push_back({"apps.cc_broadcasts", tr.broadcasts, "count/solve"});
  ms.push_back({"apps.delegates", tr.delegates, "count"});
  // Overhead of tracing: the traced segment's time per unit of work against
  // the untraced reference segment's.
  const double ref_unit = cc ? median(ref.unit_s) : 1.0 / seg_msgs_per_s(ref);
  const double tr_unit = cc ? median(tr.unit_s) : 1.0 / seg_msgs_per_s(tr);
  ms.push_back({"telemetry.trace_overhead_pct",
                (ratio(tr_unit, ref_unit) - 1.0) * 100.0, "%"});
  const auto e2e = sketch_p(m, telemetry::live::latency_kind::e2e);
  const auto flush = sketch_p(m, telemetry::live::latency_kind::flush);
  ms.push_back({"telemetry.live_e2e_p50_us", e2e.first, "us"});
  ms.push_back({"telemetry.live_e2e_p99_us", e2e.second, "us"});
  ms.push_back({"telemetry.live_flush_p50_us", flush.first, "us"});
  ms.push_back({"telemetry.live_flush_p99_us", flush.second, "us"});
  const double unattributed =
      (1.0 - ratio(static_cast<double>(sp.self_sum()) * 1e-9,
                   tr.span_wall_s)) * 100.0;
  ms.push_back({"unattributed_pct", unattributed, "%"});
  std::printf("# unattributed_pct workload=%s %.3f (share of rank wall time "
              "in the traced segment outside every span's self time)\n",
              w.name.c_str(), unattributed);

  if (!spans_out.empty()) write_spans(spans_out, tr);
  const std::uint64_t attempted = ref.expected + tr.expected;
  const std::uint64_t failed = ref.failed + tr.failed;
  const bool ok = failed == 0 && !ref.unit_s.empty() && !tr.unit_s.empty();
  print_result(ok, attempted, failed, ms);
  return 0;
}

// -------------------------------------------------------------- selftest

int g_selftest_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("# selftest %s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_selftest_failures;
}

int run_selftest() {
  {
    delivery_ledger clean(3, 4);
    for (int s = 1; s < 3; ++s) {
      for (std::uint64_t q = 0; q < 4; ++q) clean.note(s, q);
    }
    expect(clean.finish_batch(2) == 0, "ledger: complete batch has no failures");
    delivery_ledger bad(3, 4);
    for (int s = 1; s < 3; ++s) {
      for (std::uint64_t q = 0; q < 4; ++q) {
        if (!(s == 1 && q == 2)) bad.note(s, q);  // drop one
      }
    }
    bad.note(2, 3);  // duplicate one
    const std::uint64_t failed = bad.finish_batch(2);
    expect(failed == 2 && ratio(static_cast<double>(failed), 8.0) > 0,
           "ledger: one dropped + one duplicated delivery give failed_ratio > 0");
  }
  {
    latency_histogram h;
    for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
    const double p50 = h.percentile(0.5), p99 = h.percentile(0.99);
    expect(std::abs(p50 - 50000) < 50000 * 0.07 &&
               std::abs(p99 - 99000) < 99000 * 0.07,
           "histogram: percentiles within one sub-bucket");
  }
  {
    span_recorder rec(16);
    rec.open();
    rec.open();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    rec.close(k_callback);
    rec.close(k_send);
    const auto& t = rec.totals();
    expect(t.self_ns[k_send] + t.self_ns[k_callback] == t.total_ns[k_send] &&
               t.self_ns[k_callback] == t.total_ns[k_callback],
           "spans: self times partition the outer span");
  }
  {
    workload w = shrunk(cc_rmat());
    const auto oracle = oracle_labels(w, 7);
    const graph::round_robin_partition part{w.nranks()};
    std::vector<graph::vertex_id> labels;
    for (std::uint64_t i = 0; i < part.local_count(1, oracle.size()); ++i) {
      labels.push_back(oracle[part.global_id(1, i)]);
    }
    expect(mislabelled(oracle, 1, w.nranks(), labels) == 0,
           "cc oracle: correct labels pass");
    labels[labels.size() / 2] += 1;
    expect(mislabelled(oracle, 1, w.nranks(), labels) == 1,
           "cc oracle: one corrupted label is caught");
  }
  for (const auto& full : {a2a_small(), bulk_local(), cc_rmat()}) {
    const workload w = shrunk(full);
    std::optional<std::vector<graph::vertex_id>> oracle;
    if (w.kind == shape::cc_pipeline) oracle = oracle_labels(w, 11);
    const segment u =
        run_segment<false>(w, 11, 0, 1, oracle ? &*oracle : nullptr);
    const segment t =
        run_segment<true>(w, 11, 0, 1, oracle ? &*oracle : nullptr);
    const bool ok = u.failed == 0 && t.failed == 0 && u.expected > 0 &&
                    t.expected > 0 && !u.unit_s.empty() &&
                    (oracle || u.latency_samples > 0);
    expect(ok, (w.name + ": untraced and traced runs pass their checks").c_str());
  }
  std::printf("selftest: %s\n", g_selftest_failures == 0 ? "PASS" : "FAIL");
  return g_selftest_failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ main

int usage() {
  std::fprintf(stderr,
               "usage: ygmbench --workload <a2a_small|bulk_local|cc_rmat> "
               "--seed <n> --seconds <s> --trace <0|1> [--git-describe <s>] "
               "[--spans-out <file>]\n       ygmbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  const std::string git = args.count("git-describe") ? args["git-describe"] : "unknown";
  try {
    if (selftest) {
      print_stamp(git);
      return run_selftest();
    }
    if (!args.count("workload") || !args.count("seed") ||
        !args.count("seconds") || !args.count("trace")) {
      return usage();
    }
    const auto w = find_workload(args["workload"]);
    if (!w) return usage();
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const int trace = std::stoi(args["trace"]);
    if (seconds <= 0 || (trace != 0 && trace != 1)) return usage();
    print_stamp(git);
    print_pinned(*w);
    std::printf("# seed=%llu seconds=%g trace=%d\n",
                static_cast<unsigned long long>(seed), seconds, trace);
    return trace == 0 ? run_untraced(*w, seed, seconds)
                      : run_traced(*w, seed, seconds,
                                   args.count("spans-out") ? args["spans-out"]
                                                           : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ygmbench: %s\n", e.what());
    return 1;
  }
}
