#include "transport/inproc/fabric.hpp"

#include <chrono>
#include <thread>

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::transport::inproc {

fabric::fabric(int nranks) {
  YGM_CHECK(nranks > 0, "fabric size must be positive");
  slots_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    slots_.push_back(std::make_unique<mail_slot>());
  }
}

void fabric::set_chaos(const chaos_config& cfg) {
  chaos_ = cfg;
  for (int r = 0; r < size(); ++r) {
    slots_[static_cast<std::size_t>(r)]->configure_chaos(cfg, r);
  }
}

mail_slot& fabric::slot(int world_rank) {
  YGM_ASSERT(world_rank >= 0 && world_rank < size());
  return *slots_[static_cast<std::size_t>(world_rank)];
}

void fabric::abort_all() {
  bool expected = false;
  if (aborted_.compare_exchange_strong(expected, true)) {
    for (auto& s : slots_) s->abort();
  }
}

endpoint::endpoint(fabric& f, int rank)
    : transport::endpoint(backend_kind::inproc, rank, f.size(), f.slot(rank)),
      fabric_(&f) {
  epoch_ = f.epoch();
}

endpoint::~endpoint() {
  publish_stats();
  telemetry::count("transport.inproc.outq_bytes", outq_peak_bytes_);
  telemetry::count("transport.inproc.outq_stalls", outq_stalls_);
  telemetry::count("transport.inproc.outq_overflows", outq_overflows_);
}

void endpoint::send(int dest, envelope&& e) {
  mail_slot& dst = fabric_->slot(dest);
  const std::size_t cap = transport::outq_cap_bytes();
  // Self-delivery never waits: the only thread that could drain this slot
  // is the one posting.
  if (cap != 0 && dest != rank_ &&
      dst.queued_bytes() + e.payload.size() > cap && !fabric_->aborted()) {
    ++outq_stalls_;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (dst.queued_bytes() + e.payload.size() > cap &&
           !fabric_->aborted() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (dst.queued_bytes() + e.payload.size() > cap) ++outq_overflows_;
  }
  const std::size_t depth = dst.queued_bytes() + e.payload.size();
  if (depth > outq_peak_bytes_) outq_peak_bytes_ = depth;
  dst.deliver(std::move(e));
}

void endpoint::wait(const match_miss& miss) {
  // Bounded so every blocking wait returns to the receive loop: 50 us while
  // a chaos-delayed match needs match attempts to mature, else 10 ms.
  slot_->wait_for_delivery(miss.deliveries,
                           miss.delayed ? std::chrono::microseconds(50)
                                        : std::chrono::milliseconds(10));
}

void endpoint::abort_world() { fabric_->abort_all(); }

}  // namespace ygm::transport::inproc
