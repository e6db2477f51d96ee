#include "telemetry/telemetry.hpp"

#include <utility>

#include "common/assert.hpp"

namespace ygm::telemetry {

// ------------------------------------------------------ well-known names

std::string_view fast_counter_name(fast_counter c) {
  switch (c) {
    case fast_counter::route_next_hop:
      return "route.next_hop";
    case fast_counter::route_bcast_fanout:
      return "route.bcast_fanout";
    case fast_counter::mpi_sends:
      return "mpi.sends";
    case fast_counter::mpi_send_bytes:
      return "mpi.send_bytes";
    case fast_counter::mpi_recvs:
      return "mpi.recvs";
    case fast_counter::mpi_recv_bytes:
      return "mpi.recv_bytes";
    case fast_counter::mpi_collectives:
      return "mpi.collectives";
    case fast_counter::term_rounds:
      return "term.rounds";
    case fast_counter::pool_hits:
      return "pool.hits";
    case fast_counter::pool_misses:
      return "pool.misses";
    case fast_counter::alloc_bytes:
      return "alloc.bytes";
    case fast_counter::deliveries:
      return "mailbox.deliveries";
    case fast_counter::count_:
      break;
  }
  return "?";
}

std::string_view fast_histogram_name(fast_histogram h) {
  switch (h) {
    case fast_histogram::remote_packet_bytes:
      return "mailbox.remote_packet_bytes";
    case fast_histogram::local_packet_bytes:
      return "mailbox.local_packet_bytes";
    case fast_histogram::exchange_us:
      return "mailbox.exchange_us";
    case fast_histogram::count_:
      break;
  }
  return "?";
}

namespace {
// Per-scheme hop counter names; indices match routing::scheme_kind (the
// dependency is one-way — telemetry cannot include routing — so the order
// is pinned here and asserted from the routing side in router.cpp).
constexpr std::string_view kSchemeHopNames[] = {
    "route.next_hop.NoRoute",
    "route.next_hop.NodeLocal",
    "route.next_hop.NodeRemote",
    "route.next_hop.NLNR",
};
}  // namespace

// -------------------------------------------------------------- recorder

recorder::recorder(session& owner, int world, int rank,
                   std::size_t ring_capacity)
    : owner_(&owner), world_(world), rank_(rank), ring_(ring_capacity) {}

double recorder::now_us() const noexcept { return owner_->now_us(); }

name_id recorder::intern(std::string_view s) {
  auto it = name_ids_.find(std::string(s));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<name_id>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void recorder::fold_fast_metrics() {
  // exchange(0) instead of read-then-clear: the live sampler may still be
  // reading these slots through atomic_refs while a crash-dump export runs.
  for (unsigned c = 0; c < static_cast<unsigned>(fast_counter::count_); ++c) {
    const std::uint64_t v = std::atomic_ref<std::uint64_t>(fast_counters_[c])
                                .exchange(0, std::memory_order_relaxed);
    if (v != 0) {
      metrics_.counter(fast_counter_name(static_cast<fast_counter>(c))) += v;
    }
  }
  for (unsigned s = 0; s < kSchemes; ++s) {
    const std::uint64_t v = std::atomic_ref<std::uint64_t>(scheme_hops_[s])
                                .exchange(0, std::memory_order_relaxed);
    if (v != 0) metrics_.counter(kSchemeHopNames[s]) += v;
  }
  for (unsigned h = 0; h < static_cast<unsigned>(fast_histogram::count_);
       ++h) {
    if (fast_histos_[h].count() != 0) {
      metrics_.histo(fast_histogram_name(static_cast<fast_histogram>(h)))
          .merge(fast_histos_[h]);
      fast_histos_[h] = histogram{};
    }
  }
  // Live latency sketches fold into named registry histograms
  // ("live.e2e_us.NLNR", ...) — that is how they ship across the socket
  // backend's telemetry lanes and reach merged_metrics() on any backend.
  for (unsigned s = 0; s < live::kSchemes; ++s) {
    for (unsigned k = 0; k < static_cast<unsigned>(live::latency_kind::count_);
         ++k) {
      auto& sk = live_.sketches[s][k];
      if (sk.count.load(std::memory_order_relaxed) == 0) continue;
      metrics_
          .histo(live::sketch_metric_name(
              s, static_cast<live::latency_kind>(k)))
          .merge(sk.take());
    }
  }
  // Fold only the delta so repeated exports never double-count drops.
  if (ring_.dropped() > dropped_folded_) {
    metrics_.counter("trace.events_dropped") +=
        ring_.dropped() - dropped_folded_;
    dropped_folded_ = ring_.dropped();
  }
}

// --------------------------------------------------------------- session

session::session(config cfg)
    : epoch_(std::chrono::steady_clock::now()), cfg_(cfg) {}

session::~session() {
  if (global() == this) set_global(nullptr);
}

int session::begin_world(int nranks) {
  YGM_CHECK(nranks > 0, "telemetry world needs a positive rank count");
  std::lock_guard lock(mtx_);
  const int world = static_cast<int>(worlds_.size());
  auto& lanes = worlds_.emplace_back();
  lanes.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    lanes.push_back(
        std::make_unique<recorder>(*this, world, r, cfg_.ring_capacity));
  }
  return world;
}

int session::add_lane(int world) {
  std::lock_guard lock(mtx_);
  YGM_CHECK(world >= 0 && world < static_cast<int>(worlds_.size()),
            "telemetry world index out of range");
  auto& lanes = worlds_[static_cast<std::size_t>(world)];
  const int rank = static_cast<int>(lanes.size());
  lanes.push_back(
      std::make_unique<recorder>(*this, world, rank, cfg_.ring_capacity));
  return rank;
}

int session::lane_count(int world) const {
  std::lock_guard lock(mtx_);
  YGM_CHECK(world >= 0 && world < static_cast<int>(worlds_.size()),
            "telemetry world index out of range");
  return static_cast<int>(worlds_[static_cast<std::size_t>(world)].size());
}

recorder& session::rank_recorder(int world, int rank) {
  std::lock_guard lock(mtx_);
  YGM_CHECK(world >= 0 && world < static_cast<int>(worlds_.size()),
            "telemetry world index out of range");
  auto& lanes = worlds_[static_cast<std::size_t>(world)];
  YGM_CHECK(rank >= 0 && rank < static_cast<int>(lanes.size()),
            "telemetry rank index out of range");
  return *lanes[static_cast<std::size_t>(rank)];
}

double session::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int session::world_count() const {
  std::lock_guard lock(mtx_);
  return static_cast<int>(worlds_.size());
}

metrics_registry session::merged_metrics() const {
  metrics_registry merged;
  for_each_recorder([&](recorder& rec) {
    rec.fold_fast_metrics();
    merged.merge(rec.metrics());
  });
  return merged;
}

metrics_registry session::merged_metrics(int world) const {
  metrics_registry merged;
  std::lock_guard lock(mtx_);
  YGM_CHECK(world >= 0 && world < static_cast<int>(worlds_.size()),
            "telemetry world index out of range");
  for (const auto& rec : worlds_[static_cast<std::size_t>(world)]) {
    rec->fold_fast_metrics();
    merged.merge(rec->metrics());
  }
  return merged;
}

void session::visit_lanes(const std::function<void(const recorder&)>& f) const {
  for_each_recorder([&](const recorder& rec) { f(rec); });
}

std::uint64_t session::events_dropped() const {
  std::uint64_t dropped = 0;
  for_each_recorder([&](const recorder& rec) { dropped += rec.ring().dropped(); });
  return dropped;
}

// ------------------------------------------------ global session + attach

namespace {
session* g_session = nullptr;
}

session* global() { return g_session; }
void set_global(session* s) { g_session = s; }

namespace detail {
constinit thread_local recorder* tls_recorder = nullptr;
}

rank_scope::rank_scope(session& s, int world, int rank)
    : prev_(detail::tls_recorder), bound_(&s.rank_recorder(world, rank)) {
  detail::tls_recorder = bound_;
  live::lane_registry::instance().bind(bound_, world, rank);
}

rank_scope::~rank_scope() {
  live::lane_registry::instance().unbind(bound_);
  detail::tls_recorder = prev_;
}

// ------------------------------------------------------ cold-path helpers

void instant(std::string_view name) {
  recorder* r = tls();
  if (r == nullptr) return;
  trace_event e;
  e.kind = event_kind::instant;
  e.name = r->intern(name);
  e.ts_us = r->now_us();
  r->push(e);
}

void instant(std::string_view name, std::string_view arg_name,
             std::uint64_t arg, double vtime_us) {
  recorder* r = tls();
  if (r == nullptr) return;
  trace_event e;
  e.kind = event_kind::instant;
  e.name = r->intern(name);
  e.ts_us = r->now_us();
  e.arg0_name = r->intern(arg_name);
  e.arg0 = arg;
  e.vtime_us = vtime_us;
  r->push(e);
}

void count(std::string_view name, std::uint64_t n) {
  recorder* r = tls();
  if (r != nullptr) r->metrics().counter(name) += n;
}

}  // namespace ygm::telemetry
