#include "transport/shm/shm_transport.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "core/buffer_pool.hpp"  // sanctioned upward include (src/CMakeLists.txt)
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::transport::shm {

namespace {

pair_block* block_at(void* base, int producer) {
  return reinterpret_cast<pair_block*>(
      static_cast<std::byte*>(base) + sizeof(seg_header) +
      static_cast<std::size_t>(producer) * sizeof(pair_block));
}

/// Wake the (single) producer parked on a ring's space doorbell, if any.
/// Pairs with the producer's parked-flag Dekker check: our head store
/// (release) happened before the seq_cst fence, so either the producer's
/// re-check sees the freed space or we see its parked flag and ding it.
void wake_parked_producer(ring_ctrl& c) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (c.producer_parked.load(std::memory_order_relaxed) != 0) {
    c.space_seq.fetch_add(1, std::memory_order_release);
    futex_wake(&c.space_seq, 1);
  }
}

/// An empty pooled buffer with room for a whole n-byte payload, which the
/// ring reads then append to without reallocating.
std::vector<std::byte> payload_buffer(std::size_t n) {
  std::vector<std::byte> buf = core::buffer_pool::local().acquire(n);
  buf.reserve(n);
  return buf;
}

}  // namespace

std::string segment_name(const std::string& dir, int rank) {
  const auto slash = dir.find_last_of('/');
  const std::string token =
      slash == std::string::npos ? dir : dir.substr(slash + 1);
  return "/" + token + ".r" + std::to_string(rank);
}

endpoint::endpoint(const std::string& dir, int rank, int nranks,
                   const chaos_config* chaos)
    : transport::endpoint(backend_kind::shm, rank, nranks, own_slot_) {
  YGM_CHECK(nranks > 0 && rank >= 0 && rank < nranks,
            "shm endpoint rank outside world");
  segments_.resize(static_cast<std::size_t>(nranks));
  out_.resize(static_cast<std::size_t>(nranks));
  in_.resize(static_cast<std::size_t>(nranks));
  handshake(dir, chaos);
  epoch_ = monotonic_seconds();
}

void endpoint::handshake(const std::string& dir, const chaos_config* chaos) {
  if (chaos != nullptr && chaos->enabled()) {
    slot_->configure_chaos(*chaos, rank_);
  }
  if (nranks_ == 1) return;

  const std::size_t bytes = segment_bytes(nranks_);

  // Create this rank's inbound segment first, so peers' open loops can
  // succeed regardless of arrival order (the mirror of bind-before-connect
  // in the socket handshake). A stale segment with the same name (reused
  // dir_hint after a crash) is unlinked first — each rank only ever creates
  // its own name, so the unlink cannot race a sibling.
  seg_name_ = segment_name(dir, rank_);
  (void)::shm_unlink(seg_name_.c_str());
  const int fd = ::shm_open(seg_name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  YGM_CHECK(fd >= 0, std::string("shm_open(create) failed on ") + seg_name_ +
                         ": " + std::strerror(errno));
  YGM_CHECK(::ftruncate(fd, static_cast<off_t>(bytes)) == 0,
            std::string("ftruncate failed on ") + seg_name_ + ": " +
                std::strerror(errno));
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  YGM_CHECK(base != MAP_FAILED,
            std::string("mmap failed: ") + std::strerror(errno));

  auto* h = new (base) seg_header;
  h->magic.store(0, std::memory_order_relaxed);
  h->nranks = static_cast<std::uint32_t>(nranks_);
  h->aborted.store(0, std::memory_order_relaxed);
  h->recv_seq.store(0, std::memory_order_relaxed);
  h->recv_parked.store(0, std::memory_order_relaxed);
  for (int p = 0; p < nranks_; ++p) {
    auto* pb = new (block_at(base, p)) pair_block;
    pb->main_ctrl.init();
    pb->spill_ctrl.init();
  }
  // Everything above must be visible before the magic: openers acquire it.
  h->magic.store(seg_magic, std::memory_order_release);
  segments_[static_cast<std::size_t>(rank_)] = {base, bytes, h};
  for (int p = 0; p < nranks_; ++p) {
    if (p == rank_) continue;
    auto* pb = block_at(base, p);
    auto& ip = in_[static_cast<std::size_t>(p)];
    ip.main = ring_view(&pb->main_ctrl, pb->main_data, main_ring_bytes);
    ip.spill = ring_view(&pb->spill_ctrl, pb->spill_data, spill_ring_bytes);
  }

  // Map every peer's segment (we are the producer of our pair_block there),
  // retrying while the file is still appearing or being sized. A faster
  // peer may already have finished its handshake, failed, poisoned every
  // segment it mapped (ours included) and unlinked its own; every retry
  // therefore also reads our own abort flag and ends with the abort echo
  // the launcher recognises, instead of waiting out the deadline and
  // reporting a timeout that hides the real failure.
  const double deadline = monotonic_seconds() + handshake_timeout_s;
  const auto check_retry = [&](const std::string& waiting_for) {
    YGM_CHECK(h->aborted.load(std::memory_order_acquire) == 0,
              "shm world aborted during rendezvous");
    YGM_CHECK(monotonic_seconds() < deadline,
              "shm rendezvous timed out " + waiting_for);
  };
  for (int d = 0; d < nranks_; ++d) {
    if (d == rank_) continue;
    const std::string name = segment_name(dir, d);
    int pfd = -1;
    for (;;) {
      pfd = ::shm_open(name.c_str(), O_RDWR, 0600);
      if (pfd >= 0) break;
      YGM_CHECK(errno == ENOENT || errno == EACCES,
                std::string("shm_open failed on ") + name + ": " +
                    std::strerror(errno));
      check_retry("waiting for rank " + std::to_string(d));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // ftruncate may not have landed yet; wait for the full size so the map
    // never faults past EOF.
    for (;;) {
      struct stat st{};
      YGM_CHECK(::fstat(pfd, &st) == 0, "fstat failed during shm rendezvous");
      if (static_cast<std::size_t>(st.st_size) >= bytes) break;
      check_retry("sizing rank " + std::to_string(d));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    void* pbase =
        ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, pfd, 0);
    ::close(pfd);
    YGM_CHECK(pbase != MAP_FAILED,
              std::string("mmap failed: ") + std::strerror(errno));
    auto* ph = reinterpret_cast<seg_header*>(pbase);
    while (ph->magic.load(std::memory_order_acquire) != seg_magic) {
      check_retry("initializing rank " + std::to_string(d));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    segments_[static_cast<std::size_t>(d)] = {pbase, bytes, ph};
    auto* mine = block_at(pbase, rank_);
    auto& op = out_[static_cast<std::size_t>(d)];
    op.main = ring_view(&mine->main_ctrl, mine->main_data, main_ring_bytes);
    op.spill = ring_view(&mine->spill_ctrl, mine->spill_data, spill_ring_bytes);
  }
}

endpoint::~endpoint() {
  // By teardown the progress engine is forbidden from touching this
  // endpoint (comm_world::~comm_world shut the station down first), but the
  // lock discipline is kept uniform anyway — it costs nothing here.
  std::lock_guard lock(io_mtx_);
  if (nranks_ > 1) {
    const double deadline = monotonic_seconds() + (aborted_ ? 1.0 : 10.0);

    // Orderly teardown: mark fin on every outbound main ring (after the last
    // published frame, so fin-after-data order holds), then keep draining
    // inbound until every peer has said fin too. Unlike the socket backend
    // nothing outbound can be lost here — our published frames live in the
    // CONSUMER's segment, which outlives our mappings — but waiting for the
    // peers' fins guarantees no peer is still posting to us when we stop
    // consuming, all under a deadline so a crashed peer cannot wedge exit.
    for (int d = 0; d < nranks_; ++d) {
      if (d == rank_) continue;
      auto& op = out_[static_cast<std::size_t>(d)];
      op.main.set_fin();
      op.fin_sent = true;
      ding_peer(d);
    }
    for (;;) {
      pump_inbound();
      bool done = true;
      for (int r = 0; r < nranks_; ++r) {
        if (r == rank_) continue;
        if (!in_[static_cast<std::size_t>(r)].fin_seen) done = false;
      }
      if (done || aborted_ || world_marked_aborted() ||
          monotonic_seconds() > deadline) {
        break;
      }
      park_for_inbound(5000);
    }
  }

  publish_stats();
  telemetry::count("transport.shm.ring_tx_bytes", ring_tx_bytes_);
  telemetry::count("transport.shm.ring_rx_bytes", ring_rx_bytes_);
  telemetry::count("transport.shm.spill_tx_bytes", spill_tx_bytes_);
  telemetry::count("transport.shm.spill_rx_bytes", spill_rx_bytes_);
  telemetry::count("transport.shm.ring_full_stalls", ring_full_stalls_);
  telemetry::count("transport.shm.outq_stalls", outq_stalls_);
  telemetry::count("transport.shm.outq_bytes", outq_peak_bytes_);
  telemetry::count("transport.shm.futex_parks", futex_parks_);

  // Unlink our own segment; mappings (ours and every producer's) survive
  // the unlink, so stragglers write into orphaned memory harmlessly. The
  // launcher's segment sweep covers ranks that never reached this line.
  for (auto& s : segments_) {
    if (s.base != nullptr) ::munmap(s.base, s.bytes);
    s = {};
  }
  if (!seg_name_.empty()) (void)::shm_unlink(seg_name_.c_str());
}

bool endpoint::world_marked_aborted() const {
  if (nranks_ == 1) return false;
  return own_hdr()->aborted.load(std::memory_order_acquire) != 0;
}

void endpoint::mark_aborted_locked() {
  if (!aborted_) {
    aborted_ = true;
    slot_->abort();
  }
}

void endpoint::publish_outq_gauge() const {
  // Live outbound-depth gauge: published-but-unconsumed ring bytes across
  // peers. Published only from the post path (the rank thread or, under
  // io_mtx_, the engine), keeping a single writer per lane gauge slot.
  std::size_t qb = 0;
  for (const auto& op : out_) {
    if (op.main.valid()) qb += op.main.in_flight() + op.spill.in_flight();
  }
  telemetry::live::gauge_set(telemetry::live::gauge::outq_bytes,
                             static_cast<double>(qb));
}

void endpoint::ding_peer(int dest) {
  auto* h = segments_[static_cast<std::size_t>(dest)].hdr;
  // Dekker partner of park_for_inbound: our tail store (release) precedes
  // this fence, the consumer's parked store precedes its re-check, so one
  // of us must see the other.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (h->recv_parked.load(std::memory_order_relaxed) != 0) {
    h->recv_seq.fetch_add(1, std::memory_order_release);
    futex_wake(&h->recv_seq, 1);
  }
}

void endpoint::park_for_inbound(std::uint32_t timeout_us) {
  if (nranks_ == 1) {
    // Single-rank worlds have no segment (and no producers) — only a
    // chaos-delayed self-send can mature, which needs wall time, not wakes.
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min<std::uint32_t>(timeout_us, 1000)));
    return;
  }
  auto* h = own_hdr();
  const std::uint32_t seen = h->recv_seq.load(std::memory_order_acquire);
  h->recv_parked.store(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Re-check AFTER publishing the parked flag (Dekker): any producer that
  // published before our fence either left visible bytes or will see the
  // flag and ding. The wait stays bounded regardless — a lost wake costs
  // one timeout, never liveness.
  bool ready = h->aborted.load(std::memory_order_relaxed) != 0;
  if (!ready) {
    for (int r = 0; r < nranks_ && !ready; ++r) {
      if (r == rank_) continue;
      const auto& p = in_[static_cast<std::size_t>(r)];
      if (p.main.readable() != 0 ||
          (p.have_spill_hdr && p.spill.readable() != 0) ||
          (p.main.fin() && !p.fin_seen)) {
        ready = true;
      }
    }
  }
  if (!ready) {
    ++futex_parks_;
    futex_wait(&h->recv_seq, seen, timeout_us);
  }
  h->recv_parked.store(0, std::memory_order_relaxed);
}

bool endpoint::wait_for_space(int dest, ring_view& ring, std::size_t need) {
  // Caller holds io_mtx_. Pump our own inbound while waiting so two
  // mutually-flooding ranks drain each other (the consumer we are waiting
  // on may itself be blocked posting to us).
  for (;;) {
    if (aborted_ || world_marked_aborted()) {
      mark_aborted_locked();
      return false;
    }
    if (ring.free_space() >= need) return true;
    pump_inbound();
    if (ring.free_space() >= need) return true;
    auto& c = ring.ctrl();
    const std::uint32_t seen = c.space_seq.load(std::memory_order_acquire);
    c.producer_parked.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (ring.free_space() < need &&
        segments_[static_cast<std::size_t>(dest)].hdr->aborted.load(
            std::memory_order_relaxed) == 0) {
      ++futex_parks_;
      futex_wait(&c.space_seq, seen, 1000);
    }
    c.producer_parked.store(0, std::memory_order_relaxed);
  }
}

void endpoint::send(int dest, envelope&& e) {
  if (dest == rank_) {
    slot_->deliver(std::move(e));
    return;
  }
  const bool spill = e.payload.size() > inline_payload_max;
  wire_header hdr;
  hdr.kind = static_cast<std::uint32_t>(spill ? frame_kind::spill
                                              : frame_kind::data);
  hdr.payload_len = static_cast<std::uint32_t>(e.payload.size());
  hdr.src = e.src;
  hdr.tag = e.tag;
  hdr.ctx = e.ctx;
  const std::size_t frame_bytes = sizeof(wire_header) + e.payload.size();

  bool cap_stalled = false;
  for (;;) {
    std::unique_lock lock(io_mtx_);
    if (aborted_ || world_marked_aborted()) {
      // World is poisoned: drop the frame; callers surface the error on
      // their next receive (the socket backend's fail_peer clears its queue
      // the same way).
      mark_aborted_locked();
      if (!e.payload.empty()) {
        core::buffer_pool::local().release(std::move(e.payload));
      }
      return;
    }
    auto& op = out_[static_cast<std::size_t>(dest)];
    YGM_CHECK(op.main.valid() && !op.fin_sent, "post after shm teardown");

    // The socket backend's accept rule, with in-flight ring bytes standing
    // in for queued outq bytes: accept when nothing is in flight (a single
    // frame beyond the cap must still pass) or the frame fits under
    // outq_cap_bytes(). The ring's own capacity is the hard floor below.
    const std::size_t cap = transport::outq_cap_bytes();
    const std::size_t in_flight = op.main.in_flight() + op.spill.in_flight();
    if (cap != 0 && in_flight != 0 && in_flight + frame_bytes > cap) {
      if (!cap_stalled) {
        cap_stalled = true;
        ++outq_stalls_;
      }
      pump_inbound();
      publish_outq_gauge();
      lock.unlock();
      // Park on the main ring's space doorbell: the consumer dings it as it
      // frees space. A consumer draining only the spill ring dings the
      // other doorbell, so keep the wait short — worst case one timeout of
      // latency, same order as the socket backend's poll interval.
      auto& c = op.main.ctrl();
      const std::uint32_t seen = c.space_seq.load(std::memory_order_acquire);
      c.producer_parked.store(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (op.main.in_flight() + op.spill.in_flight() + frame_bytes > cap &&
          segments_[static_cast<std::size_t>(dest)].hdr->aborted.load(
              std::memory_order_relaxed) == 0) {
        ++futex_parks_;
        futex_wait(&c.space_seq, seen, 2000);
      }
      c.producer_parked.store(0, std::memory_order_relaxed);
      continue;
    }

    if (!spill) {
      if (op.main.free_space() < frame_bytes) {
        ++ring_full_stalls_;
        if (!wait_for_space(dest, op.main, frame_bytes)) {
          if (!e.payload.empty()) {
            core::buffer_pool::local().release(std::move(e.payload));
          }
          return;
        }
      }
      // Header + payload staged together, one release store publishes the
      // whole frame: the consumer never sees a torn size or a header whose
      // payload has not arrived.
      op.main.stage(&hdr, sizeof(hdr));
      if (!e.payload.empty()) op.main.stage(e.payload.data(), e.payload.size());
      ring_tx_bytes_ += op.main.publish();
      if (!e.payload.empty()) {
        core::buffer_pool::local().release(std::move(e.payload));
      }
      ding_peer(dest);
    } else {
      // Spill frame: the header takes the frame's place in main-ring order,
      // then the payload streams through the spill ring in chunks (so
      // payloads larger than the ring still pass). The pooled packet buffer
      // is the memcpy source — no staging copy. The lock is held across the
      // stream: frames toward one peer must not interleave, and we keep
      // pumping our own inbound inside the waits so liveness never depends
      // on releasing it.
      if (op.main.free_space() < sizeof(hdr)) {
        ++ring_full_stalls_;
        if (!wait_for_space(dest, op.main, sizeof(hdr))) {
          core::buffer_pool::local().release(std::move(e.payload));
          return;
        }
      }
      op.main.stage(&hdr, sizeof(hdr));
      ring_tx_bytes_ += op.main.publish();
      ding_peer(dest);
      std::size_t sent = 0;
      while (sent < e.payload.size()) {
        std::size_t room = op.spill.free_space();
        if (room == 0) {
          ++ring_full_stalls_;
          if (!wait_for_space(dest, op.spill, 1)) {
            core::buffer_pool::local().release(std::move(e.payload));
            return;
          }
          room = op.spill.free_space();
        }
        const std::size_t take = std::min(room, e.payload.size() - sent);
        op.spill.stage(e.payload.data() + sent, take);
        spill_tx_bytes_ += op.spill.publish();
        sent += take;
        ding_peer(dest);
      }
      core::buffer_pool::local().release(std::move(e.payload));
    }

    const std::size_t now_in_flight =
        op.main.in_flight() + op.spill.in_flight();
    if (now_in_flight > outq_peak_bytes_) outq_peak_bytes_ = now_in_flight;
    publish_outq_gauge();
    return;
  }
}

bool endpoint::pump_pair(int src, in_pair& p) {
  bool moved = false;
  for (;;) {
    // Finish an in-progress spill first: per-pair frame order is main-ring
    // order, so nothing behind the spill header may be delivered before it.
    if (p.have_spill_hdr) {
      const std::size_t want =
          p.spill_hdr.payload_len - p.spill_payload.size();
      const std::size_t take = std::min(want, p.spill.readable());
      if (take != 0) {
        p.spill.read_append(0, take, p.spill_payload);
        p.spill.consume(take);
        spill_rx_bytes_ += take;
        moved = true;
        wake_parked_producer(p.spill.ctrl());
      }
      if (p.spill_payload.size() < p.spill_hdr.payload_len) {
        break;  // resume next pump
      }
      slot_->deliver(envelope{p.spill_hdr.src, p.spill_hdr.tag,
                              p.spill_hdr.ctx, std::move(p.spill_payload)});
      p.spill_payload = {};
      p.have_spill_hdr = false;
      continue;
    }
    if (p.main.readable() < sizeof(wire_header)) break;
    wire_header hdr;
    p.main.peek(0, &hdr, sizeof(hdr));
    if (hdr.kind == static_cast<std::uint32_t>(frame_kind::data)) {
      // Whole-frame publication: the payload is readable the moment the
      // header is. Append it straight to a pooled vector — the buffer that
      // crosses into mail_slot (and later the application's recv) is the
      // one the ring filled, and the ring copy is its only write.
      std::vector<std::byte> payload;
      if (hdr.payload_len > 0) {
        payload = payload_buffer(hdr.payload_len);
        p.main.read_append(sizeof(hdr), hdr.payload_len, payload);
      }
      p.main.consume(sizeof(hdr) + hdr.payload_len);
      ring_rx_bytes_ += sizeof(hdr) + hdr.payload_len;
      moved = true;
      wake_parked_producer(p.main.ctrl());
      slot_->deliver(envelope{hdr.src, hdr.tag, hdr.ctx, std::move(payload)});
    } else if (hdr.kind == static_cast<std::uint32_t>(frame_kind::spill)) {
      p.main.consume(sizeof(hdr));
      ring_rx_bytes_ += sizeof(hdr);
      moved = true;
      wake_parked_producer(p.main.ctrl());
      p.spill_hdr = hdr;
      p.have_spill_hdr = true;
      p.spill_payload = payload_buffer(hdr.payload_len);
    } else {
      YGM_CHECK(false, "corrupt frame kind in shm ring from rank " +
                           std::to_string(src));
    }
  }
  if (!p.fin_seen && p.main.fin() && p.main.readable() == 0 &&
      !p.have_spill_hdr) {
    p.fin_seen = true;
  }
  return moved;
}

bool endpoint::pump_inbound() {
  if (nranks_ == 1) return false;
  if (!aborted_ && world_marked_aborted()) mark_aborted_locked();
  bool moved = false;
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    if (pump_pair(r, in_[static_cast<std::size_t>(r)])) moved = true;
  }
  return moved;
}

bool endpoint::pump(bool from_engine) {
  const auto lock = pump_lock(io_mtx_, from_engine);
  return lock.owns_lock() && pump_inbound();
}

void endpoint::wait(const match_miss& miss) {
  std::lock_guard lock(io_mtx_);
  if (pump_inbound()) return;  // fresh deliveries: match again now
  // Ranks that died of a world abort go silent too. The flag is published
  // before their fin, so re-reading it after the pump saw the fins lets
  // the next match report the abort, not a would-block verdict that hides
  // the rank that started it.
  if (!aborted_ && world_marked_aborted()) mark_aborted_locked();
  if (aborted_) return;
  YGM_CHECK(miss.delayed || !all_peers_silent(),
            std::string("shm ") + miss.op +
                " would block forever: all peers finished and no matching "
                "message is queued");
  // A chaos-delayed match matures with the slot clock, which ticks on each
  // match — park briefly so the delay ages instead of waiting a full
  // interval for ring traffic that may never come.
  park_for_inbound(miss.delayed ? 1000 : 10000);
}

void endpoint::abort_world() {
  {
    std::lock_guard lock(io_mtx_);
    if (!aborted_) {
      aborted_ = true;
      // Poison every mapped segment (peers notice on their next pump or
      // bounded park) and ring every doorbell so parked ranks wake now
      // rather than on timeout.
      for (int r = 0; r < nranks_; ++r) {
        auto* h = segments_[static_cast<std::size_t>(r)].hdr;
        if (h == nullptr) continue;
        h->aborted.store(1, std::memory_order_release);
        h->recv_seq.fetch_add(1, std::memory_order_release);
        futex_wake(&h->recv_seq, 1);
      }
      // Producers of OUR segment may be parked on its space doorbells.
      for (int r = 0; r < nranks_; ++r) {
        if (r == rank_) continue;
        auto& p = in_[static_cast<std::size_t>(r)];
        if (!p.main.valid()) continue;
        p.main.ctrl().space_seq.fetch_add(1, std::memory_order_release);
        futex_wake(&p.main.ctrl().space_seq, 1);
        p.spill.ctrl().space_seq.fetch_add(1, std::memory_order_release);
        futex_wake(&p.spill.ctrl().space_seq, 1);
      }
    }
  }
  slot_->abort();
}

bool endpoint::all_peers_silent() const {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    const auto& p = in_[static_cast<std::size_t>(r)];
    if (!p.fin_seen) return false;
    if (p.main.readable() != 0 || p.have_spill_hdr) return false;
  }
  return true;
}

}  // namespace ygm::transport::shm
