#include "core/progress.hpp"

#include <chrono>
#include <cstdlib>

#include "core/comm_world.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"

namespace ygm::progress {

// ------------------------------------------------------------------- mode

std::string_view to_string(mode m) noexcept {
  switch (m) {
    case mode::polling:
      return "polling";
    case mode::engine:
      return "engine";
  }
  return "?";
}

std::optional<mode> mode_from_name(std::string_view name) noexcept {
  if (name == "polling") return mode::polling;
  if (name == "engine") return mode::engine;
  return std::nullopt;
}

mode mode_from_env() {
  const char* env = std::getenv("YGM_PROGRESS");
  if (env == nullptr || *env == '\0') return mode::polling;
  const auto m = mode_from_name(env);
  YGM_CHECK(m.has_value(), std::string("unknown YGM_PROGRESS mode: ") + env +
                               " (expected polling|engine)");
  return *m;
}

// ---------------------------------------------------------------- station

station::station(engine* eng, transport::endpoint* ep)
    : engine_(eng), ep_(ep) {
  // The engine pumps and drains through this endpoint from its own thread,
  // so nothing may be lent in place on it (docs/TRANSPORT.md).
  if (eng != nullptr && ep != nullptr) ep->disable_lending();
}

void station::add_pump(std::shared_ptr<pump> p) {
  std::lock_guard lock(pumps_mtx_);
  pumps_.push_back(std::move(p));
}

void station::remove_pump(const std::shared_ptr<pump>& p) {
  // Disable first, then wait out any steal in flight: the engine sets busy
  // before re-checking enabled, so once busy reads false with enabled
  // already false, the engine can never enter this pump again.
  p->enabled.store(false, std::memory_order_seq_cst);
  while (p->busy.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
  std::lock_guard lock(pumps_mtx_);
  std::erase(pumps_, p);
}

void station::enter_guard(bool inline_deliveries) noexcept {
  if (inline_deliveries) {
    inline_depth_.fetch_add(1, std::memory_order_acq_rel);
  }
  guard_depth_.fetch_add(1, std::memory_order_acq_rel);
}

void station::exit_guard(bool inline_deliveries) noexcept {
  guard_depth_.fetch_sub(1, std::memory_order_acq_rel);
  if (inline_deliveries) {
    inline_depth_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void station::shutdown() noexcept {
  enabled_.store(false, std::memory_order_seq_cst);
  while (servicing_.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
}

void station::for_each_pump(const std::function<void(pump&)>& f) {
  // Snapshot under the lock, run outside it: rank_quiesce is collective and
  // may block for a long time.
  std::vector<std::shared_ptr<pump>> snap;
  {
    std::lock_guard lock(pumps_mtx_);
    snap = pumps_;
  }
  for (auto& p : snap) {
    if (p->enabled.load(std::memory_order_acquire)) f(*p);
  }
}

bool station::service() {
  // The busy-style handshake with shutdown(): mark servicing, then re-check
  // enabled. shutdown() orders its store before the spin, so either we see
  // disabled here and bail, or shutdown waits until this pass finishes.
  servicing_.store(true, std::memory_order_seq_cst);
  if (!enabled_.load(std::memory_order_seq_cst)) {
    servicing_.store(false, std::memory_order_release);
    return false;
  }

  bool did_work = false;
  const bool inline_ok = inline_deliveries();
  const bool stealable = guard_depth() > 0;

  {
    std::lock_guard lock(pumps_mtx_);
    scratch_ = pumps_;
  }
  for (auto& p : scratch_) {
    if (!p->engine_advance) continue;  // polling-only registration
    // Steal only while the rank is inside a guard or parked in wait_empty:
    // anywhere else the rank is polling for itself, and an uninvited steal
    // would just contend the mailbox mutex.
    if (!stealable && !p->parked.load(std::memory_order_acquire)) continue;

    p->busy.store(true, std::memory_order_seq_cst);
    if (!p->enabled.load(std::memory_order_seq_cst)) {
      p->busy.store(false, std::memory_order_release);
      continue;
    }
    bool advanced = false;
    try {
      advanced = p->engine_advance(inline_ok);
    } catch (...) {
      // engine_advance contracts to capture callback exceptions itself;
      // anything escaping here is a mailbox bug — don't take the engine
      // thread (and with it the whole world's progress) down.
      advanced = false;
    }
    p->busy.store(false, std::memory_order_release);
    did_work |= advanced;
    if (engine_ != nullptr) engine_->note_steal(advanced);
  }
  scratch_.clear();

  // Donate a pump to the transport so backends with a wire to service
  // (socket) keep draining while every rank computes.
  if (ep_ != nullptr && ep_->progress_hook()) {
    did_work = true;
    if (engine_ != nullptr) engine_->note_hook_pump();
  }

  servicing_.store(false, std::memory_order_release);
  return did_work;
}

// ----------------------------------------------------------------- engine

engine::engine(int telemetry_world) : telemetry_world_(telemetry_world) {
  // Advertise as the live-telemetry driver before make_process_services can
  // run (launch creates the engine first), so the sampler rides this
  // thread's passes instead of starting its own.
  telemetry::live::set_engine_driver(true);
  telemetry::live::set_engine_stats_provider([this] {
    const counters c = stats();
    telemetry::live::engine_stats s;
    s.valid = true;
    s.passes = c.passes;
    s.steal_attempts = c.steal_attempts;
    s.steals = c.steals;
    s.hook_pumps = c.hook_pumps;
    return s;
  });
  thread_ = std::thread([this] { loop(); });
}

engine::~engine() {
  // Unpublish from live telemetry before tearing the thread down so statusz
  // never queries a half-destroyed engine. The sampler (torn down before the
  // engine by the launch layer) falls back to never ticking once the driver
  // flag drops.
  telemetry::live::set_engine_stats_provider({});
  telemetry::live::set_engine_driver(false);
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void engine::adopt(std::shared_ptr<station> st) {
  // Lock-free handoff; the ring is comfortably larger than any realistic
  // number of concurrently-constructed worlds, but push can still fail if
  // ranks outrun the engine loop — retry, the consumer drains every pass.
  while (!incoming_.try_push(std::move(st))) {
    std::this_thread::yield();  // full ring: the consumer drains every pass
  }
}

engine::counters engine::stats() const noexcept {
  counters c;
  c.passes = passes_.load(std::memory_order_relaxed);
  c.steal_attempts = steal_attempts_.load(std::memory_order_relaxed);
  c.steals = steals_.load(std::memory_order_relaxed);
  c.hook_pumps = hook_pumps_.load(std::memory_order_relaxed);
  return c;
}

void engine::note_steal(bool advanced) noexcept {
  steal_attempts_.fetch_add(1, std::memory_order_relaxed);
  if (advanced) steals_.fetch_add(1, std::memory_order_relaxed);
}

void engine::note_hook_pump() noexcept {
  hook_pumps_.fetch_add(1, std::memory_order_relaxed);
}

void engine::publish_counters() {
  const counters c = stats();
  telemetry::count("progress.engine.passes", c.passes);
  telemetry::count("progress.engine.steal_attempts", c.steal_attempts);
  telemetry::count("progress.engine.steals", c.steals);
  telemetry::count("progress.engine.hook_pumps", c.hook_pumps);
}

void engine::loop() {
  // Bind the engine thread to its own telemetry lane of the rank threads'
  // world so causal hop events recorded here stitch into the same journeys
  // (tools/ygm_trace matches on (world, journey id), not lane index).
  std::optional<telemetry::rank_scope> lane;
  if (telemetry_world_ >= 0 && telemetry::global() != nullptr) {
    const int lane_rank = telemetry::global()->add_lane(telemetry_world_);
    lane.emplace(*telemetry::global(), telemetry_world_, lane_rank);
  }

  // Idle policy: spin this many passes without work, then sleep between
  // passes.
  constexpr int spin_passes = 16;
  constexpr auto idle_sleep = std::chrono::microseconds(100);

  int idle_passes = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    while (auto st = incoming_.try_pop()) {
      stations_.push_back(std::move(*st));
    }

    bool did_work = false;
    for (auto it = stations_.begin(); it != stations_.end();) {
      if (!(*it)->enabled()) {
        it = stations_.erase(it);
        continue;
      }
      did_work |= (*it)->service();
      ++it;
    }
    passes_.fetch_add(1, std::memory_order_relaxed);
    // Drive the live sampler from this thread: one due-check per pass, a
    // real tick only every sample period (the sampler owns the cadence).
    telemetry::live::sampler_poll();

    if (did_work) {
      idle_passes = 0;
    } else if (++idle_passes >= spin_passes) {
      std::this_thread::sleep_for(idle_sleep);
    }
  }

  if (lane.has_value()) publish_counters();
}

// ------------------------------------------------- process-wide installation

namespace {
engine* g_engine = nullptr;
}

engine* current() noexcept { return g_engine; }

engine_scope::engine_scope(int telemetry_world)
    : eng_(std::make_unique<engine>(telemetry_world)) {
  YGM_CHECK(g_engine == nullptr,
            "a progress engine is already installed in this process");
  g_engine = eng_.get();
}

engine_scope::~engine_scope() {
  g_engine = nullptr;
  eng_.reset();
}

// ------------------------------------------------------------- rank facade

guard::guard(core::comm_world& w, deliver policy)
    : st_(&w.progress_station()), inline_(policy == deliver::on_engine) {
  st_->enter_guard(inline_);
}

guard::~guard() { st_->exit_guard(inline_); }

void drain(core::comm_world& w) {
  w.progress_station().for_each_pump([](pump& p) {
    if (p.rank_poll) p.rank_poll();
  });
}

void quiesce(core::comm_world& w) {
  w.progress_station().for_each_pump([](pump& p) {
    if (p.rank_quiesce) p.rank_quiesce();
  });
}

}  // namespace ygm::progress
