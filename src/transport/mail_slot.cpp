#include "transport/mail_slot.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ygm::transport {

namespace {

/// Stateless decision hash: fold the fields through splitmix64 so every
/// (seed, salt, fields...) tuple yields an independent 64-bit draw.
template <class... Us>
std::uint64_t chaos_mix(std::uint64_t seed, std::uint64_t salt, Us... fields) {
  std::uint64_t h = splitmix64(seed ^ salt);
  ((h = splitmix64(h ^ static_cast<std::uint64_t>(fields))), ...);
  return h;
}

/// Map a 64-bit hash to [0, 1).
double chaos_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Key identifying one sender stream for the non-overtaking clamp. Collisions
/// only merge ordering constraints (more conservative, still MPI-legal).
std::uint64_t stream_key(int src, std::uint64_t ctx) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) ^
         splitmix64(ctx);
}

}  // namespace

void mail_slot::configure_chaos(const chaos_config& cfg, int owner_rank) {
  std::lock_guard lock(mtx_);
  YGM_CHECK(q_.empty(),
            "chaos must be configured before any traffic reaches the slot");
  chaos_ = cfg;
  rank_ = owner_rank;
}

void mail_slot::maybe_stall() {
  if (!chaos_.stalls_active()) return;
  const std::uint64_t draw =
      stall_draws_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = chaos_mix(chaos_.seed, 0x57A11u, rank_, draw);
  if (chaos_unit(h) < chaos_.stall_prob) {
    const std::uint64_t us =
        1 + splitmix64(h) % static_cast<std::uint64_t>(chaos_.max_stall_us);
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

std::uint64_t mail_slot::draw_visible_at_locked(int src, std::uint64_t ctx) {
  if (!chaos_.delays_active()) return 0;
  auto& stream = streams_[stream_key(src, ctx)];
  const std::uint64_t idx = stream.arrivals++;
  const std::uint64_t h = chaos_mix(chaos_.seed, 0xDE1A7u, rank_, src, ctx, idx);
  std::uint64_t visible_at = 0;
  if (chaos_unit(h) < chaos_.delay_prob) {
    visible_at = clock_ + 1 + splitmix64(h) % chaos_.max_delay_ticks;
  }
  // Non-overtaking: a message may not become visible before an earlier
  // message of the same (source, context) stream.
  visible_at = std::max(visible_at, stream.last_visible_at);
  stream.last_visible_at = visible_at;
  return visible_at;
}

void mail_slot::enqueue_locked(envelope&& e, std::uint64_t visible_at) {
  payload_bytes_.fetch_add(e.payload.size(), std::memory_order_relaxed);
  q_.push_back(queued{std::move(e), visible_at});
  ++deliveries_;
}

void mail_slot::deliver(envelope&& e) {
  maybe_stall();
  {
    std::lock_guard lock(mtx_);
    const std::uint64_t visible_at = draw_visible_at_locked(e.src, e.ctx);
    enqueue_locked(std::move(e), visible_at);
  }
  cv_.notify_all();
}

std::optional<mail_slot::admission> mail_slot::admit(int src, int tag,
                                                     std::uint64_t ctx) {
  {
    std::lock_guard lock(mtx_);
    if (std::any_of(q_.begin(), q_.end(), [&](const queued& q) {
          return matches(q.env, src, tag, ctx);
        })) {
      return std::nullopt;
    }
  }
  maybe_stall();  // the arrival's stall, as deliver() draws it
  std::lock_guard lock(mtx_);
  admission a;
  a.visible_at = draw_visible_at_locked(src, ctx);
  // The next match ticks the clock first, so clock_ + 1 is "now" to it.
  a.lendable = a.visible_at <= clock_ + 1;
  return a;
}

void mail_slot::deliver(envelope&& e, std::uint64_t visible_at) {
  {
    std::lock_guard lock(mtx_);
    enqueue_locked(std::move(e), visible_at);
  }
  cv_.notify_all();
}

std::size_t mail_slot::match_locked(int src, int tag, std::uint64_t ctx,
                                    match_miss* miss) {
  YGM_CHECK(!aborted_,
            miss == nullptr
                ? std::string("transport world aborted")
                : std::string("transport world aborted while blocked in ") +
                      miss->op);
  ++clock_;
  bool delayed = false;
  std::size_t found = npos;
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (!matches(q_[i].env, src, tag, ctx)) continue;
    if (q_[i].visible_at <= clock_) {
      found = i;
      break;
    }
    delayed = true;
  }
  if (miss != nullptr) {
    miss->delayed = delayed;
    miss->deliveries = deliveries_;
  }
  return found;
}

std::optional<envelope> mail_slot::try_recv_match(int src, int tag,
                                                  std::uint64_t ctx,
                                                  match_miss* miss) {
  std::lock_guard lock(mtx_);
  const std::size_t i = match_locked(src, tag, ctx, miss);
  if (i == npos) return std::nullopt;
  envelope e = std::move(q_[i].env);
  q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(i));
  payload_bytes_.fetch_sub(e.payload.size(), std::memory_order_relaxed);
  return e;
}

bool mail_slot::draw_probe_miss_locked() {
  if (chaos_.probe_misses_active() &&
      misses_ < chaos_.max_consecutive_misses) {
    // Draw on a counter of *eligible* probes (matchable message present),
    // not on clock_: the clock also advances on blocking-recv wakeups,
    // whose count is timing-dependent, and the miss pattern must be a pure
    // function of the seed and the probe stream.
    const std::uint64_t h =
        chaos_mix(chaos_.seed, 0x1970BEu, rank_, probe_draws_++);
    if (chaos_unit(h) < chaos_.iprobe_miss_prob) {
      // MPI-legal weak progress: report no message although one is
      // matchable. The consecutive-miss cap keeps repeated probing live.
      ++misses_;
      ++miss_total_;
      return true;
    }
  }
  misses_ = 0;
  return false;
}

std::optional<status> mail_slot::iprobe(int src, int tag, std::uint64_t ctx) {
  maybe_stall();
  std::lock_guard lock(mtx_);
  const std::size_t i = match_locked(src, tag, ctx, nullptr);
  ++iprobe_calls_;
  if (i == npos || draw_probe_miss_locked()) return std::nullopt;
  const envelope& e = q_[i].env;
  return status{e.src, e.tag, e.payload.size()};
}

mail_slot::taken mail_slot::take(int tag, std::uint64_t ctx, bool have_offer) {
  maybe_stall();  // the probe's stall
  taken out;
  {
    std::lock_guard lock(mtx_);
    const std::size_t i = match_locked(any_source, tag, ctx, nullptr);
    ++iprobe_calls_;
    if ((i == npos && !have_offer) || draw_probe_miss_locked()) return out;
    // The receive's match: its tick, and the same message — the first
    // visible one of its source, which the probe found.
    ++clock_;
    if (i != npos) {
      out.env = std::move(q_[i].env);
      q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(i));
      payload_bytes_.fetch_sub(out.env->payload.size(),
                               std::memory_order_relaxed);
    } else {
      out.offer = true;
    }
  }
  maybe_stall();  // the receive's stall
  return out;
}

std::optional<status> mail_slot::try_probe(int src, int tag, std::uint64_t ctx,
                                           match_miss* miss) {
  std::lock_guard lock(mtx_);
  const std::size_t i = match_locked(src, tag, ctx, miss);
  if (i == npos) return std::nullopt;
  const envelope& e = q_[i].env;
  return status{e.src, e.tag, e.payload.size()};
}

void mail_slot::wait_for_delivery(std::uint64_t seen,
                                  std::chrono::microseconds timeout) {
  std::unique_lock lock(mtx_);
  cv_.wait_for(lock, timeout,
               [&] { return deliveries_ != seen || aborted_; });
}

std::uint64_t mail_slot::deliveries() const {
  std::lock_guard lock(mtx_);
  return deliveries_;
}

std::size_t mail_slot::pending() const {
  std::lock_guard lock(mtx_);
  return q_.size();
}

void mail_slot::abort() {
  {
    std::lock_guard lock(mtx_);
    aborted_ = true;
  }
  cv_.notify_all();
}

mail_slot::probe_counters mail_slot::probe_stats() const {
  std::lock_guard lock(mtx_);
  return probe_counters{iprobe_calls_, probe_draws_, miss_total_};
}

}  // namespace ygm::transport
