#include "transport/endpoint.hpp"

#include <time.h>
#include <unistd.h>

#include <string>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "core/buffer_pool.hpp"  // sanctioned upward include (src/CMakeLists.txt)
#include "telemetry/telemetry.hpp"

namespace ygm::transport {

std::string_view to_string(backend_kind k) noexcept {
  switch (k) {
    case backend_kind::inproc:
      return "inproc";
    case backend_kind::socket:
      return "socket";
    case backend_kind::shm:
      return "shm";
  }
  return "?";
}

std::optional<backend_kind> backend_from_name(std::string_view name) noexcept {
  if (name == "inproc") return backend_kind::inproc;
  if (name == "socket") return backend_kind::socket;
  if (name == "shm") return backend_kind::shm;
  return std::nullopt;
}

backend_kind backend_from_env() {
  return env::read("YGM_TRANSPORT", "inproc | socket | shm", backend_from_name)
      .value_or(backend_kind::inproc);
}

namespace {

// The pid of the process that forked this one's rank (0: none). Forked
// ranks inherit it.
pid_t g_launcher = 0;

}  // namespace

double monotonic_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void note_launcher() noexcept { g_launcher = ::getpid(); }

void check_launcher_alive() {
  if (g_launcher == 0 || g_launcher == ::getpid()) return;
  YGM_CHECK(::getppid() == g_launcher,
            "launcher (pid " + std::to_string(g_launcher) + ") died");
}

packet::~packet() {
  if (lent_ != nullptr) {
    lent_->give_back();
  } else if (owned_.capacity() != 0) {
    core::buffer_pool::local().release(std::move(owned_));
  }
}

void endpoint::post(int dest, envelope&& e) {
  YGM_ASSERT(dest >= 0 && dest < nranks_);
  stats_.posts.fetch_add(1, std::memory_order_relaxed);
  stats_.post_bytes.fetch_add(e.payload.size(), std::memory_order_relaxed);
  send(dest, std::move(e));
}

// The receive loop every backend shares. Nonblocking calls pump first, so
// they see whatever has arrived; blocking calls match, and on a miss let the
// backend wait (bounded — it pumps as it waits) before matching again. Each
// match ticks the slot's chaos clock, which is how delayed messages mature.
// A blocking call draws one chaos stall, however many times it waits.

envelope endpoint::recv_match(int src, int tag, std::uint64_t ctx) {
  slot_->maybe_stall();
  match_miss miss{"recv"};
  for (;;) {
    if (auto e = slot_->try_recv_match(src, tag, ctx, &miss)) {
      return std::move(*e);
    }
    wait(miss);
  }
}

std::optional<envelope> endpoint::try_recv_match(int src, int tag,
                                                 std::uint64_t ctx) {
  pump(/*from_engine=*/false);
  return slot_->try_recv_match(src, tag, ctx);
}

std::optional<status> endpoint::iprobe(int src, int tag, std::uint64_t ctx) {
  pump(/*from_engine=*/false);
  return slot_->iprobe(src, tag, ctx);
}

status endpoint::probe(int src, int tag, std::uint64_t ctx) {
  slot_->maybe_stall();
  match_miss miss{"probe"};
  for (;;) {
    if (auto st = slot_->try_probe(src, tag, ctx, &miss)) return *st;
    wait(miss);
  }
}

std::optional<packet> endpoint::take(int tag, std::uint64_t ctx) {
  lent_frame* offer = lend(tag, ctx);
  auto got = slot_->take(tag, ctx, offer != nullptr);
  if (got.env) return packet(got.env->src, std::move(got.env->payload));
  if (!got.offer) return std::nullopt;
  set_on_loan(*offer, true);
  return packet(*offer);
}

lent_frame* endpoint::lend(int, std::uint64_t) {
  pump(/*from_engine=*/false);
  return nullptr;
}

std::size_t endpoint::pending() {
  pump(/*from_engine=*/false);
  return slot_->pending();
}

void endpoint::publish_stats() const {
  const std::string prefix = std::string("transport.") +
                             std::string(to_string(kind())) + ".";
  const auto probes = slot_->probe_stats();
  telemetry::count(prefix + "posts",
                   stats_.posts.load(std::memory_order_relaxed));
  telemetry::count(prefix + "post_bytes",
                   stats_.post_bytes.load(std::memory_order_relaxed));
  telemetry::count(prefix + "iprobe_calls", probes.iprobe_calls);
  telemetry::count(prefix + "iprobe_draws", probes.draws);
  telemetry::count(prefix + "iprobe_misses", probes.misses);
}

}  // namespace ygm::transport
