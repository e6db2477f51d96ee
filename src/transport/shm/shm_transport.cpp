#include "transport/shm/shm_transport.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "core/buffer_pool.hpp"  // sanctioned upward include (src/CMakeLists.txt)
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::transport::shm {

namespace {

ring_ctrl* ctrl_at(void* base, int producer) {
  return reinterpret_cast<ring_ctrl*>(
      static_cast<std::byte*>(base) + sizeof(seg_header) +
      static_cast<std::size_t>(producer) * sizeof(ring_ctrl));
}

std::size_t data_at(int nranks, int producer) {
  return data_offset(nranks) + static_cast<std::size_t>(producer) * ring_bytes;
}

/// Mark a segment's world aborted and ring its recv doorbell, so its
/// owner notices now rather than on its next bounded park.
void poison(seg_header& h) {
  h.aborted.store(1, std::memory_order_release);
  h.recv_seq.fetch_add(1, std::memory_order_release);
  futex_wake(&h.recv_seq, 1);
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
  if (n == 0) return {};
  std::vector<std::byte> buf = core::buffer_pool::local().acquire(n);
  buf.reserve(n);
  return buf;
}

}  // namespace

world::world(int nranks)
    : nranks_(nranks),
      fds_(static_cast<std::size_t>(nranks), -1),
      headers_(static_cast<std::size_t>(nranks), nullptr) {
  YGM_CHECK(nranks > 0, "shm world needs a positive rank count");
  if (nranks == 1) return;  // a single rank has no peer and no segment
  YGM_CHECK(data_align % static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) == 0,
            "shm data areas are not page-aligned on this host");
  try {
    for (int r = 0; r < nranks; ++r) {
      int& fd = fds_[static_cast<std::size_t>(r)];
      fd = ::memfd_create("ygm-shm", MFD_CLOEXEC);
      YGM_CHECK(fd >= 0,
                std::string("memfd_create failed: ") + std::strerror(errno));
      YGM_CHECK(
          ::ftruncate(fd, static_cast<off_t>(segment_bytes(nranks))) == 0,
          std::string("ftruncate failed: ") + std::strerror(errno));
      void* base = ::mmap(nullptr, data_offset(nranks), PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd, 0);
      YGM_CHECK(base != MAP_FAILED,
                std::string("mmap failed: ") + std::strerror(errno));
      auto* h = new (base) seg_header;
      headers_[static_cast<std::size_t>(r)] = h;
      h->nranks = static_cast<std::uint32_t>(nranks);
      h->aborted.store(0, std::memory_order_relaxed);
      h->recv_seq.store(0, std::memory_order_relaxed);
      h->recv_parked.store(0, std::memory_order_relaxed);
      for (int p = 0; p < nranks; ++p) {
        (new (ctrl_at(base, p)) ring_ctrl)->init();
      }
    }
  } catch (...) {
    release();
    throw;
  }
}

world::~world() { release(); }

void world::release() noexcept {
  close_fds();
  for (seg_header*& h : headers_) {
    if (h != nullptr) ::munmap(h, data_offset(nranks_));
    h = nullptr;
  }
}

void world::close_fds() noexcept {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void world::poison() noexcept {
  for (seg_header* h : headers_) {
    if (h != nullptr) shm::poison(*h);
  }
}

endpoint::endpoint(const world& w, int rank, const chaos_config* chaos)
    : transport::endpoint(backend_kind::shm, rank, w.nranks(), own_slot_) {
  YGM_CHECK(rank >= 0 && rank < nranks_, "shm endpoint rank outside world");
  segments_.resize(static_cast<std::size_t>(nranks_));
  out_.resize(static_cast<std::size_t>(nranks_));
  in_.resize(static_cast<std::size_t>(nranks_));
  for (auto& p : in_) p.owner = this;
  if (chaos != nullptr && chaos->enabled()) {
    slot_->configure_chaos(*chaos, rank_);
  }
  if (nranks_ > 1) map_world(w);
  epoch_ = monotonic_seconds();
}

void endpoint::map_world(const world& w) {
  const std::size_t bytes = segment_bytes(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                        w.fd(r), 0);
    YGM_CHECK(base != MAP_FAILED,
              "mmap failed on the shm segment of rank " + std::to_string(r) +
                  ": " + std::strerror(errno));
    auto* h = static_cast<seg_header*>(base);
    segments_[static_cast<std::size_t>(r)] = {base, bytes, h};
    YGM_CHECK(h->nranks == static_cast<std::uint32_t>(nranks_),
              "shm segment belongs to a world of another size");
    if (r == rank_) continue;
    // We produce into the ring with our index in every peer's segment.
    out_[static_cast<std::size_t>(r)].ring =
        ring_view(ctrl_at(base, rank_),
                  static_cast<std::byte*>(base) + data_at(nranks_, rank_),
                  ring_bytes);
  }
  // The consumer reads each inbound ring through its own mirrored mapping,
  // so every frame of up to ring_bytes is one contiguous span.
  void* own = segments_[static_cast<std::size_t>(rank_)].base;
  for (int p = 0; p < nranks_; ++p) {
    if (p == rank_) continue;
    auto& in = in_[static_cast<std::size_t>(p)];
    in.mirror = map_mirrored(w.fd(rank_), data_at(nranks_, p), ring_bytes);
    YGM_CHECK(in.mirror != nullptr,
              std::string("mirrored mmap failed: ") + std::strerror(errno));
    in.ring = ring_view(ctrl_at(own, p), in.mirror, ring_bytes);
  }
}

endpoint::~endpoint() {
  // By teardown the progress engine is forbidden from touching this
  // endpoint (comm_world::~comm_world shut the station down first), but the
  // lock discipline is kept uniform anyway — it costs nothing here.
  std::lock_guard lock(io_mtx_);
  if (nranks_ > 1) {
    const double deadline = monotonic_seconds() + (aborted_ ? 1.0 : 10.0);
    unpin();

    // Orderly teardown: mark fin on every outbound ring (after the last
    // published frame, so fin-after-data order holds), then keep draining
    // inbound until every peer has said fin too. Unlike the socket backend
    // nothing outbound can be lost here — our published frames live in the
    // CONSUMER's segment, which outlives our mappings — but waiting for the
    // peers' fins guarantees no peer is still posting to us when we stop
    // consuming, all under a deadline so a crashed peer cannot wedge exit.
    for (int d = 0; d < nranks_; ++d) {
      if (d == rank_) continue;
      auto& op = out_[static_cast<std::size_t>(d)];
      op.ring.set_fin();
      op.fin_sent = true;
      ding_peer(d);
    }
    for (;;) {
      pump_inbound(pump_mode::copy_all);
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
  telemetry::count("transport.shm.ring_full_stalls", ring_full_stalls_);
  telemetry::count("transport.shm.outq_bytes", outq_peak_bytes_);
  telemetry::count("transport.shm.futex_parks", futex_parks_);
  telemetry::count("transport.shm.frames_lent", frames_lent_);
  telemetry::count("transport.shm.frames_copied", frames_copied_);
  telemetry::count("transport.shm.lend_evictions", lend_evictions_);

  // Producers' published frames live in our segment, and ours in theirs;
  // each segment is freed once the last process mapping it is gone.
  for (auto& s : segments_) {
    if (s.base != nullptr) ::munmap(s.base, s.bytes);
    s = {};
  }
  for (auto& p : in_) {
    unmap_mirrored(p.mirror, ring_bytes);
    p.mirror = nullptr;
  }
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
    if (op.ring.valid()) qb += op.ring.in_flight();
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
      if (p.ring.readable() != 0 || (p.ring.fin() && !p.fin_seen)) {
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

bool endpoint::wait_for_space(int dest, std::size_t need) {
  // Caller holds io_mtx_. Pump our own inbound while waiting so two
  // mutually-flooding ranks drain each other (the consumer we are waiting
  // on may itself be blocked posting to us).
  ring_view& ring = out_[static_cast<std::size_t>(dest)].ring;
  if (ring.free_space() >= need) return true;
  ++ring_full_stalls_;
  // Nothing lent or offered stays pinned while we block: the peer we wait
  // on may itself be waiting for the ring space such a frame holds.
  unpin();
  // The flag stays up for the whole wait, not just the park: the consumer
  // then wakes us after freeing room, and if it waits for ring space as
  // well, copies this ring's frames out instead of holding them for its
  // take() (pump_mode::relieve). Ranks that wait on one another therefore
  // drain one another.
  auto& c = ring.ctrl();
  c.producer_parked.store(1, std::memory_order_relaxed);
  const struct lower_flag {
    std::atomic<std::uint32_t>& flag;
    ~lower_flag() { flag.store(0, std::memory_order_relaxed); }
  } lower{c.producer_parked};
  for (;;) {
    check_launcher_alive();
    if (aborted_ || world_marked_aborted()) {
      mark_aborted_locked();
      return false;
    }
    pump_inbound(lending() ? pump_mode::relieve : pump_mode::copy_all);
    if (ring.free_space() >= need) return true;
    const std::uint32_t seen = c.space_seq.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (ring.free_space() < need &&
        segments_[static_cast<std::size_t>(dest)].hdr->aborted.load(
            std::memory_order_relaxed) == 0) {
      ++futex_parks_;
      futex_wait(&c.space_seq, seen, 1000);
    }
    if (ring.free_space() >= need) return true;
  }
}

void endpoint::send(int dest, envelope&& e) {
  if (dest == rank_) {
    slot_->deliver(std::move(e));
    return;
  }
  wire_header hdr;
  hdr.kind = data_frame;
  hdr.payload_len = static_cast<std::uint32_t>(e.payload.size());
  hdr.src = e.src;
  hdr.tag = e.tag;
  hdr.ctx = e.ctx;

  std::lock_guard lock(io_mtx_);
  auto& op = out_[static_cast<std::size_t>(dest)];
  if (aborted_ || world_marked_aborted()) {
    // World is poisoned: drop the frame; callers surface the error on
    // their next receive (the socket backend's fail_peer clears its queue
    // the same way). A frame cut short by an abort below is dropped too.
    mark_aborted_locked();
  } else {
    YGM_CHECK(op.ring.valid() && !op.fin_sent, "post after shm teardown");
    // Stream the frame: the header waits for room of its own and goes out
    // with as much payload as fits in one publish; the rest follows in
    // chunks as the consumer frees room. The pooled packet buffer is the
    // memcpy source — no staging copy. The lock is held across the
    // stream: frames toward one peer must not interleave, and
    // wait_for_space pumps our own inbound, so liveness never depends on
    // releasing it.
    if (wait_for_space(dest, sizeof(hdr))) {
      op.ring.stage(&hdr, sizeof(hdr));
      std::size_t sent = 0;
      for (;;) {
        const std::size_t take =
            std::min(op.ring.free_space(), e.payload.size() - sent);
        if (take != 0) op.ring.stage(e.payload.data() + sent, take);
        sent += take;
        ring_tx_bytes_ += op.ring.publish();
        ding_peer(dest);
        if (sent == e.payload.size() || !wait_for_space(dest, 1)) break;
      }
    }
    const std::size_t in_flight = op.ring.in_flight();
    if (in_flight > outq_peak_bytes_) outq_peak_bytes_ = in_flight;
    publish_outq_gauge();
  }
  if (!e.payload.empty()) {
    core::buffer_pool::local().release(std::move(e.payload));
  }
}

bool endpoint::wanted(const wire_header& h) const noexcept {
  return have_key_ && h.tag == key_tag_ && h.ctx == key_ctx_ &&
         sizeof(h) + h.payload_len <= ring_bytes;
}

std::vector<std::byte> endpoint::copy_head_frame(in_pair& p, std::size_t n) {
  std::vector<std::byte> out = payload_buffer(n);
  if (n != 0) p.ring.read_append(sizeof(wire_header), n, out);
  const std::size_t frame = sizeof(wire_header) + n;
  p.ring.consume(frame);
  ring_rx_bytes_ += frame;
  wake_parked_producer(p.ring.ctrl());
  return out;
}

bool endpoint::pump_pair(int src, in_pair& p, pump_mode mode) {
  bool moved = false;
  for (;;) {
    if (p.lent_bytes != 0) break;  // the head frame is offered or on loan
    // One step: the header (if this frame's is not yet read) and whatever
    // payload is readable, freed with one consume and one producer wake.
    // Per-pair frame order is ring order, so a partial frame blocks the
    // frames behind it until its last byte lands.
    const std::size_t readable = p.ring.readable();
    std::size_t used = 0;
    if (!p.have_hdr) {
      if (readable < sizeof(wire_header)) break;
      wire_header h;
      p.ring.peek(0, &h, sizeof(h));
      YGM_CHECK(h.kind == data_frame,
                "corrupt frame kind in shm ring from rank " +
                    std::to_string(src));
      p.hdr = h;
      // A frame take() asks for stays where it lies, unless a rank that
      // waits for ring space finds this ring's producer waiting too:
      // copying it out is what lets that producer go on. One frame is
      // offered at a time, and a pair lends one frame at a time.
      const bool keep =
          mode == pump_mode::offer || mode == pump_mode::hold ||
          (mode == pump_mode::relieve &&
           p.ring.ctrl().producer_parked.load(std::memory_order_relaxed) == 0);
      if (keep && wanted(h)) {
        if (mode != pump_mode::offer || offered_ != nullptr || on_loan(p)) {
          break;
        }
        const std::size_t frame = sizeof(h) + h.payload_len;
        if (readable < frame) break;  // not fully published yet
        const auto adm = slot_->admit(h.src, h.tag, h.ctx);
        if (!adm) break;  // its stream's queued message goes first
        if (adm->lendable) {
          p.lent_bytes = frame;
          p.visible_at = adm->visible_at;
          p.point_at(h.src, p.ring.read_span(sizeof(h), h.payload_len).data(),
                     h.payload_len);
          offered_ = &p;
          break;
        }
        // Delayed by chaos: copy it in under the delay it drew.
        slot_->deliver(envelope{h.src, h.tag, h.ctx,
                                copy_head_frame(p, h.payload_len)},
                       adm->visible_at);
        ++frames_copied_;
        moved = true;
        continue;
      }
      p.have_hdr = true;
      used = sizeof(wire_header);
      // Append straight to a pooled vector: the buffer that crosses into
      // mail_slot (and later the application's recv) is the one the ring
      // filled, and the ring copy is its only write.
      p.payload = payload_buffer(p.hdr.payload_len);
    }
    const std::size_t take = std::min<std::size_t>(
        readable - used, p.hdr.payload_len - p.payload.size());
    if (take != 0) p.ring.read_append(used, take, p.payload);
    used += take;
    if (used == 0) break;  // mid-frame, nothing new readable
    p.ring.consume(used);
    ring_rx_bytes_ += used;
    moved = true;
    wake_parked_producer(p.ring.ctrl());
    if (p.payload.size() < p.hdr.payload_len) break;  // resume next pump
    p.have_hdr = false;
    slot_->deliver(
        envelope{p.hdr.src, p.hdr.tag, p.hdr.ctx, std::move(p.payload)});
    p.payload = {};
    ++frames_copied_;
  }
  if (!p.fin_seen && !p.have_hdr && p.lent_bytes == 0 && p.ring.fin() &&
      p.ring.readable() == 0) {
    p.fin_seen = true;
  }
  return moved;
}

bool endpoint::pump_inbound(pump_mode mode) {
  if (nranks_ == 1) return false;
  if (!aborted_ && world_marked_aborted()) mark_aborted_locked();
  settle_offer();
  bool moved = false;
  // Offers rotate over the pairs, so no source's frames wait behind
  // another's.
  for (int k = 0; k < nranks_; ++k) {
    const int r = (next_offer_ + k) % nranks_;
    if (r == rank_) continue;
    if (pump_pair(r, in_[static_cast<std::size_t>(r)], mode)) moved = true;
  }
  if (mode == pump_mode::offer) next_offer_ = (next_offer_ + 1) % nranks_;
  return moved;
}

bool endpoint::pump(bool from_engine) {
  const auto lock = pump_lock(io_mtx_, from_engine);
  return lock.owns_lock() &&
         pump_inbound(lending() ? pump_mode::hold : pump_mode::copy_all);
}

transport::lent_frame* endpoint::lend(int tag, std::uint64_t ctx) {
  std::lock_guard lock(io_mtx_);
  if (!lending()) {
    pump_inbound(pump_mode::copy_all);
    return nullptr;
  }
  settle_offer();
  if (offered_ != nullptr &&
      (offered_->hdr.tag != tag || offered_->hdr.ctx != ctx)) {
    withdraw_offer();  // offered to a take that asked for another stream
  }
  have_key_ = true;
  key_tag_ = tag;
  key_ctx_ = ctx;
  pump_inbound(pump_mode::offer);
  return offered_;
}

void endpoint::settle_offer() noexcept {
  if (offered_ != nullptr && on_loan(*offered_)) offered_ = nullptr;
}

bool endpoint::withdraw_offer() {
  settle_offer();
  if (offered_ == nullptr) return false;
  in_pair& p = *offered_;
  offered_ = nullptr;
  p.lent_bytes = 0;
  slot_->deliver(envelope{p.hdr.src, p.hdr.tag, p.hdr.ctx,
                          copy_head_frame(p, p.hdr.payload_len)},
                 p.visible_at);
  ++frames_copied_;
  return true;
}

bool endpoint::unpin() {
  evict_loans();
  return withdraw_offer();
}

void endpoint::evict_loans() {
  for (auto& p : in_) {
    if (!on_loan(p) || p.lent_bytes == 0) continue;
    // The holder re-reads its packet's bytes after anything that can
    // block, so it finds them here.
    p.lent_bytes = 0;
    p.evicted = copy_head_frame(p, p.hdr.payload_len);
    p.point_at(p.hdr.src, p.evicted.data(), p.evicted.size());
    ++lend_evictions_;
  }
}

void endpoint::give_back(in_pair& p) noexcept {
  std::lock_guard lock(io_mtx_);
  set_on_loan(p, false);
  if (offered_ == &p) offered_ = nullptr;
  ++frames_lent_;
  if (p.lent_bytes != 0) {
    p.ring.consume(p.lent_bytes);
    ring_rx_bytes_ += p.lent_bytes;
    p.lent_bytes = 0;
    wake_parked_producer(p.ring.ctrl());
  } else if (p.evicted.capacity() != 0) {
    core::buffer_pool::local().release(std::move(p.evicted));
    p.evicted = {};
  }
}

void endpoint::wait(const match_miss& miss) {
  check_launcher_alive();
  std::lock_guard lock(io_mtx_);
  const bool fresh = unpin();
  if (pump_inbound(pump_mode::copy_all) || fresh) return;  // match again now
  // Ranks that died of a world abort go silent too. The flag is published
  // before their fin, so re-reading it after the pump saw the fins lets
  // the next match report the abort, not a would-block verdict that hides
  // the rank that started it.
  if (!aborted_ && world_marked_aborted()) mark_aborted_locked();
  if (aborted_) return;
  // The progress engine may have moved a peer's last frames and its fin
  // into the slot since the failed match: match again before judging.
  if (slot_->deliveries() != miss.deliveries) return;
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
      for (const auto& s : segments_) {
        if (s.hdr != nullptr) poison(*s.hdr);
      }
      // Producers of OUR segment may be parked on its space doorbells.
      for (auto& p : in_) {
        if (!p.ring.valid()) continue;
        p.ring.ctrl().space_seq.fetch_add(1, std::memory_order_release);
        futex_wake(&p.ring.ctrl().space_seq, 1);
      }
    }
  }
  slot_->abort();
}

bool endpoint::all_peers_silent() const {
  // fin_seen is set only once the ring is empty and no frame is partly
  // read, and nothing is published after fin, so it stays silent.
  for (int r = 0; r < nranks_; ++r) {
    if (r != rank_ && !in_[static_cast<std::size_t>(r)].fin_seen) return false;
  }
  return true;
}

}  // namespace ygm::transport::shm
