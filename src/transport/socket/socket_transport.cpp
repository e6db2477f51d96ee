#include "transport/socket/socket_transport.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "core/buffer_pool.hpp"  // sanctioned upward include (src/CMakeLists.txt)
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::transport::socket {

namespace {

std::string sock_path(const std::string& dir, int rank) {
  return dir + "/r" + std::to_string(rank) + ".sock";
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  YGM_CHECK(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK) failed");
}

/// Blocking write of exactly n bytes (handshake only — data path is
/// nonblocking).
void write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      YGM_CHECK(false, std::string("handshake write failed: ") +
                           std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Blocking read of exactly n bytes (handshake only).
void read_all(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    YGM_CHECK(r > 0, r == 0 ? "peer hung up during handshake"
                            : std::string("handshake read failed: ") +
                                  std::strerror(errno));
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  YGM_CHECK(path.size() < sizeof(addr.sun_path),
            "socket rendezvous path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

world::world(std::string dir, int nranks)
    : dir_(std::move(dir)),
      nranks_(nranks),
      listeners_(static_cast<std::size_t>(nranks), -1) {
  YGM_CHECK(nranks > 0, "socket world needs a positive rank count");
  if (nranks == 1) return;  // a single rank connects to nobody
  try {
    for (int r = 0; r < nranks; ++r) {
      const auto addr = make_addr(sock_path(dir_, r));
      (void)::unlink(addr.sun_path);
      int& fd = listeners_[static_cast<std::size_t>(r)];
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      YGM_CHECK(fd >= 0,
                std::string("socket() failed: ") + std::strerror(errno));
      YGM_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                std::string("bind failed on ") + addr.sun_path + ": " +
                    std::strerror(errno));
      YGM_CHECK(::listen(fd, nranks) == 0,
                std::string("listen failed: ") + std::strerror(errno));
    }
  } catch (...) {
    release();
    throw;
  }
}

world::~world() { release(); }

void world::release() noexcept {
  close_listeners();
  for (int r = 0; r < nranks_; ++r) {
    (void)::unlink(sock_path(dir_, r).c_str());
  }
}

void world::close_listeners() noexcept {
  for (int& fd : listeners_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

endpoint::endpoint(const world& w, int rank, const chaos_config* chaos,
                   std::size_t outq_cap)
    : transport::endpoint(backend_kind::socket, rank, w.nranks(), own_slot_,
                          outq_cap) {
  YGM_CHECK(rank >= 0 && rank < nranks_, "socket endpoint rank outside world");
  peers_.resize(static_cast<std::size_t>(nranks_));
  if (chaos != nullptr && chaos->enabled()) {
    slot_->configure_chaos(*chaos, rank_);
  }
  handshake(w);
  epoch_ = monotonic_seconds();
}

void endpoint::handshake(const world& w) {
  if (nranks_ == 1) return;

  // Connect to every lower rank. Its listener has been up since before
  // this rank was forked, so the connect lands in its backlog at once.
  for (int peer_rank = 0; peer_rank < rank_; ++peer_rank) {
    const auto addr = make_addr(sock_path(w.dir(), peer_rank));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    YGM_CHECK(fd >= 0, std::string("socket() failed: ") + std::strerror(errno));
    peers_[static_cast<std::size_t>(peer_rank)].fd = fd;
    YGM_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
              "connect to rank " + std::to_string(peer_rank) +
                  " failed: " + std::strerror(errno));
    wire_header hello{};
    hello.kind = static_cast<std::uint32_t>(frame_kind::hello);
    hello.src = rank_;
    write_all(fd, &hello, sizeof(hello));
  }

  // Accept one connection from every higher rank; the hello frame says who
  // is calling.
  for (int accepted = 0; accepted < nranks_ - 1 - rank_; ++accepted) {
    const int fd = ::accept4(w.listener(rank_), nullptr, nullptr, SOCK_CLOEXEC);
    YGM_CHECK(fd >= 0, std::string("accept failed: ") + std::strerror(errno));
    wire_header hello{};
    read_all(fd, &hello, sizeof(hello));
    YGM_CHECK(hello.kind == static_cast<std::uint32_t>(frame_kind::hello) &&
                  hello.src > rank_ && hello.src < nranks_,
              "malformed hello during socket rendezvous");
    auto& p = peers_[static_cast<std::size_t>(hello.src)];
    YGM_CHECK(p.fd < 0, "duplicate hello during socket rendezvous");
    p.fd = fd;
  }

  for (int r = 0; r < nranks_; ++r) {
    if (r != rank_) set_nonblocking(peers_[static_cast<std::size_t>(r)].fd);
  }
}

endpoint::~endpoint() {
  // By teardown the progress engine is forbidden from touching this
  // endpoint (comm_world::~comm_world shut the station down first), but the
  // lock discipline is kept uniform anyway — it costs nothing here.
  std::lock_guard lock(io_mtx_);
  const double deadline = monotonic_seconds() + (aborted_ ? 1.0 : 10.0);

  // Orderly teardown: flush what the world is owed, announce fin, then keep
  // pumping until every peer has said fin too (so nobody's last frames are
  // lost to an early close), all under a deadline so a crashed peer cannot
  // wedge our exit.
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    auto& p = peers_[static_cast<std::size_t>(r)];
    if (p.fd >= 0 && !p.fin_sent && !p.eof) {
      enqueue_control(p, frame_kind::fin);
      p.fin_sent = true;
    }
  }
  for (;;) {
    bool done = true;
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      const auto& p = peers_[static_cast<std::size_t>(r)];
      if (p.fd >= 0 && !p.eof && (!p.outq.empty() || !p.fin_seen)) {
        done = false;
      }
    }
    if (done || monotonic_seconds() > deadline) break;
    progress(10);
  }

  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }

  publish_stats();
  telemetry::count("transport.socket.wire_tx_bytes", wire_tx_bytes_);
  telemetry::count("transport.socket.wire_rx_bytes", wire_rx_bytes_);
  telemetry::count("transport.socket.wire_sendmsg_calls", wire_sendmsg_calls_);
  telemetry::count("transport.socket.wire_partial_sends", wire_partial_sends_);
  telemetry::count("transport.socket.outq_bytes", outq_peak_bytes_);
  telemetry::count("transport.socket.outq_stalls", outq_stalls_);
}

void endpoint::send(int dest, envelope&& e) {
  if (dest == rank_) {
    slot_->deliver(std::move(e));
    return;
  }
  const std::size_t frame_bytes = sizeof(wire_header) + e.payload.size();
  // Live outbound-depth gauge: total bytes queued across peers. Published
  // only from here (the rank thread), so each telemetry lane's gauge slot
  // keeps a single writer; caller must hold io_mtx_.
  const auto publish_outq = [this] {
    std::size_t qb = 0;
    for (const auto& ps : peers_) qb += ps.outq_bytes;
    telemetry::live::gauge_set(telemetry::live::gauge::outq_bytes,
                               static_cast<double>(qb));
  };
  bool stalled = false;
  // Cap-stall pacing: poll() already sleeps for the pump interval, but a
  // fixed 10 ms interval still costs ~100 lock/flush/poll wakeups per
  // second while a receiver stays away for hundreds of milliseconds. Back
  // the interval off exponentially while nothing drains (bounded at 50 ms
  // so abort/fin frames are still noticed promptly) and snap back to the
  // short interval the moment any byte moves, so resumption latency stays
  // at one short interval.
  int wait_ms = 10;
  // Per-iteration locking, like wait(): the mutex is released between pump
  // intervals so a concurrent progress-engine pass is never starved while
  // we wait out a full peer queue.
  for (;;) {
    if (stalled) check_launcher_alive();
    std::unique_lock lock(io_mtx_);
    auto& p = peers_[static_cast<std::size_t>(dest)];
    YGM_CHECK(p.fd >= 0 && !p.fin_sent, "post after socket teardown");

    // Accept when under the cap — or unconditionally when the queue is
    // empty (a single frame larger than the cap must still pass) or the
    // peer is already failed/aborting (fail_peer drops the queue anyway).
    if (outq_cap_ == 0 || p.outq.empty() ||
        p.outq_bytes + frame_bytes <= outq_cap_ || p.eof || aborted_) {
      out_msg m;
      m.hdr.kind = static_cast<std::uint32_t>(frame_kind::data);
      m.hdr.payload_len = static_cast<std::uint32_t>(e.payload.size());
      m.hdr.src = e.src;
      m.hdr.tag = e.tag;
      m.hdr.ctx = e.ctx;
      m.payload = std::move(e.payload);
      p.outq_bytes += frame_bytes;
      if (p.outq_bytes > outq_peak_bytes_) outq_peak_bytes_ = p.outq_bytes;
      p.outq.push_back(std::move(m));
      // Opportunistic immediate flush: in the common case the kernel takes
      // the whole frame here and the payload goes straight back to the pool.
      flush_peer(p);
      publish_outq();
      return;
    }
    if (!stalled) {
      stalled = true;
      ++outq_stalls_;
    }
    flush_peer(p);
    publish_outq();
    if (p.outq_bytes + frame_bytes <= outq_cap_) continue;  // room: retry
    // Wait for POLLOUT on the full peer; the pump also keeps reading
    // inbound frames, so a peer blocked posting to *us* drains too.
    const std::size_t before = p.outq_bytes;
    progress(wait_ms);
    wait_ms = p.outq_bytes < before ? 10 : std::min(wait_ms * 2, 50);
  }
}

void endpoint::enqueue_control(peer_state& p, frame_kind k) {
  // Control frames bypass the outbound cap: abort/fin must never queue
  // behind a backpressured data stream.
  out_msg m;
  m.hdr.kind = static_cast<std::uint32_t>(k);
  m.hdr.src = rank_;
  p.outq_bytes += sizeof(wire_header);
  p.outq.push_back(std::move(m));
  flush_peer(p);
}

bool endpoint::flush_peer(peer_state& p) {
  while (!p.outq.empty()) {
    out_msg& m = p.outq.front();
    const auto* hdr_bytes = reinterpret_cast<const std::byte*>(&m.hdr);
    const std::size_t total = sizeof(wire_header) + m.payload.size();

    iovec iov[2];
    int iovcnt = 0;
    if (m.sent < sizeof(wire_header)) {
      iov[iovcnt].iov_base =
          const_cast<std::byte*>(hdr_bytes + m.sent);
      iov[iovcnt].iov_len = sizeof(wire_header) - m.sent;
      ++iovcnt;
      if (!m.payload.empty()) {
        iov[iovcnt].iov_base = m.payload.data();
        iov[iovcnt].iov_len = m.payload.size();
        ++iovcnt;
      }
    } else {
      const std::size_t off = m.sent - sizeof(wire_header);
      iov[iovcnt].iov_base = m.payload.data() + off;
      iov[iovcnt].iov_len = m.payload.size() - off;
      ++iovcnt;
    }

    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ++wire_sendmsg_calls_;
    const ssize_t w = ::sendmsg(p.fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      if (errno == EINTR) continue;
      // EPIPE/ECONNRESET: peer is gone. During orderly teardown that just
      // means it exited first; otherwise it is a world failure.
      fail_peer(p, "send");
      return false;
    }
    wire_tx_bytes_ += static_cast<std::uint64_t>(w);
    m.sent += static_cast<std::size_t>(w);
    if (m.sent < total) {
      ++wire_partial_sends_;
      return false;  // kernel buffer full mid-frame
    }
    if (!m.payload.empty()) {
      // Frame fully on the wire: recycle the packet buffer.
      core::buffer_pool::local().release(std::move(m.payload));
    }
    p.outq_bytes -= std::min(p.outq_bytes, total);
    p.outq.pop_front();
  }
  return true;
}

void endpoint::fail_peer(peer_state& p, const char* why) {
  (void)why;
  p.eof = true;
  p.outq.clear();
  p.outq_bytes = 0;  // releases any post blocked on this peer's cap
  // A peer vanishing before its fin means its process died: poison the
  // local world so blocked operations surface an error instead of hanging.
  if (!p.fin_seen && !aborted_) {
    aborted_ = true;
    slot_->abort();
  }
}

void endpoint::handle_frame(peer_state& p) {
  switch (static_cast<frame_kind>(p.hdr.kind)) {
    case frame_kind::data:
      slot_->deliver(envelope{p.hdr.src, p.hdr.tag, p.hdr.ctx,
                              std::move(p.payload)});
      p.payload = {};
      break;
    case frame_kind::abort:
      aborted_ = true;
      slot_->abort();
      break;
    case frame_kind::fin:
      p.fin_seen = true;
      break;
    case frame_kind::hello:
    default:
      YGM_CHECK(false, "unexpected frame kind on established socket channel");
  }
  p.hdr_got = 0;
  p.payload_got = 0;
}

void endpoint::read_peer(peer_state& p) {
  for (;;) {
    if (p.hdr_got < sizeof(wire_header)) {
      const ssize_t r = ::read(p.fd, p.hdr_buf.data() + p.hdr_got,
                               sizeof(wire_header) - p.hdr_got);
      if (r == 0) {
        if (!p.fin_seen) {
          fail_peer(p, "eof");
        } else {
          p.eof = true;
        }
        return;
      }
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        fail_peer(p, "read");
        return;
      }
      wire_rx_bytes_ += static_cast<std::uint64_t>(r);
      p.hdr_got += static_cast<std::size_t>(r);
      if (p.hdr_got < sizeof(wire_header)) continue;
      std::memcpy(&p.hdr, p.hdr_buf.data(), sizeof(wire_header));
      if (p.hdr.payload_len > 0) {
        // Read the payload straight into a pooled vector: the buffer that
        // crosses into mail_slot (and later into the application's recv) is
        // the one the wire filled.
        p.payload = core::buffer_pool::local().acquire(p.hdr.payload_len);
        p.payload.resize(p.hdr.payload_len);
        p.payload_got = 0;
      } else {
        p.payload.clear();
        handle_frame(p);
        continue;
      }
    }
    const std::size_t want = p.hdr.payload_len - p.payload_got;
    const ssize_t r = ::read(p.fd, p.payload.data() + p.payload_got, want);
    if (r == 0) {
      fail_peer(p, "eof mid-frame");
      return;
    }
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      fail_peer(p, "read");
      return;
    }
    wire_rx_bytes_ += static_cast<std::uint64_t>(r);
    p.payload_got += static_cast<std::size_t>(r);
    if (p.payload_got == p.hdr.payload_len) handle_frame(p);
  }
}

void endpoint::progress(int timeout_ms) {
  if (nranks_ == 1) return;
  pollfds_.clear();
  static thread_local std::vector<int> fd_rank;
  fd_rank.clear();
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    auto& p = peers_[static_cast<std::size_t>(r)];
    if (p.fd < 0 || p.eof) continue;
    pollfd pf{};
    pf.fd = p.fd;
    pf.events = POLLIN;
    if (!p.outq.empty()) pf.events |= POLLOUT;
    pollfds_.push_back(pf);
    fd_rank.push_back(r);
  }
  if (pollfds_.empty()) return;

  const int n = ::poll(pollfds_.data(),
                       static_cast<nfds_t>(pollfds_.size()), timeout_ms);
  if (n <= 0) return;
  for (std::size_t i = 0; i < pollfds_.size(); ++i) {
    auto& p = peers_[static_cast<std::size_t>(fd_rank[i])];
    if (p.fd < 0 || p.eof) continue;
    const short re = pollfds_[i].revents;
    if (re & (POLLIN | POLLHUP | POLLERR)) read_peer(p);
    if (p.fd >= 0 && !p.eof && (re & POLLOUT)) flush_peer(p);
  }
}

bool endpoint::pump(bool from_engine) {
  const auto lock = pump_lock(io_mtx_, from_engine);
  if (!lock.owns_lock()) return false;
  const std::uint64_t before = wire_tx_bytes_ + wire_rx_bytes_;
  progress(0);
  return wire_tx_bytes_ + wire_rx_bytes_ != before;
}

void endpoint::wait(const match_miss& miss) {
  check_launcher_alive();
  std::lock_guard lock(io_mtx_);
  // The progress engine may have read a peer's last frames and its fin
  // into the slot since the failed match: match again before judging.
  if (slot_->deliveries() != miss.deliveries) return;
  YGM_CHECK(miss.delayed || !all_peers_silent(),
            std::string("socket ") + miss.op +
                " would block forever: all peers finished and no matching "
                "message is queued");
  // A chaos-delayed match matures with the slot clock, which ticks on each
  // match — poll briefly so the delay ages instead of waiting a full
  // interval for wire traffic that may never come.
  progress(miss.delayed ? 1 : 10);
}

void endpoint::abort_world() {
  {
    std::lock_guard lock(io_mtx_);
    if (!aborted_) {
      aborted_ = true;
      for (int r = 0; r < nranks_; ++r) {
        if (r == rank_) continue;
        auto& p = peers_[static_cast<std::size_t>(r)];
        if (p.fd >= 0 && !p.eof) enqueue_control(p, frame_kind::abort);
      }
      // Best-effort: give the abort frames one brief pump to leave.
      progress(0);
    }
  }
  slot_->abort();
}

bool endpoint::all_peers_silent() const {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    const auto& p = peers_[static_cast<std::size_t>(r)];
    if (p.fd >= 0 && !p.eof && !p.fin_seen) return false;
    if (p.hdr_got > 0) return false;  // frame mid-reassembly
  }
  return true;
}

}  // namespace ygm::transport::socket
