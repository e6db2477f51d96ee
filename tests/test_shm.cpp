// Tests for the shm transport's building blocks that the end-to-end
// transport suite cannot isolate: the SPSC byte ring (wrap-around copies,
// the mirrored consumer mapping, full-ring backpressure, the torn-size
// publication guard — exercised with real producer/consumer threads so
// TSan sees the release/acquire protocol), the rendezvous giving up on a
// poisoned world, and the
// launcher's handling of ranks that die without unwinding: it poisons
// their shm peers (a SIGKILLed rank must fail the launch fast, on socket
// too) and sweeps their orphaned segments (no /dev/shm space may leak).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "ser/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/proc/launch.hpp"
#include "transport/shm/shm_transport.hpp"
#include "transport/shm/spsc_ring.hpp"

namespace {

namespace shm = ygm::transport::shm;
namespace sim = ygm::mpisim;
namespace tp = ygm::transport;
namespace tel = ygm::telemetry;
using std::chrono::steady_clock;

// In-process ring fixture: one ctrl block and a one-page data area in a
// memfd, mapped once for the producer and mirrored for the consumer, as
// the backend maps them. The two sides never share a view (the staged
// cursor is producer-private), exactly like the two processes in the real
// backend.
struct ring_fixture {
  const std::size_t cap = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  shm::ring_ctrl ctrl;
  int fd = -1;
  std::byte* data = nullptr;
  std::byte* mirror = nullptr;
  shm::ring_view producer;
  shm::ring_view consumer;

  ring_fixture() {
    ctrl.init();
    fd = ::memfd_create("ygm-ring-test", 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::ftruncate(fd, static_cast<off_t>(cap)), 0);
    void* p = ::mmap(nullptr, cap, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    EXPECT_NE(p, MAP_FAILED);
    data = static_cast<std::byte*>(p);
    mirror = shm::map_mirrored(fd, 0, cap);
    EXPECT_NE(mirror, nullptr);
    producer = shm::ring_view(&ctrl, data, cap);
    consumer = shm::ring_view(&ctrl, mirror, cap);
  }
  ~ring_fixture() {
    shm::unmap_mirrored(mirror, cap);
    ::munmap(data, cap);
    ::close(fd);
  }
};

TEST(SpscRing, FramesSurviveWrapAround) {
  ring_fixture r;
  // Frame sizes coprime with the capacity so the wrap point lands inside
  // headers, payloads, and everywhere in between over the run.
  std::uint64_t next = 0;
  int wrapped = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t n = 1 + static_cast<std::size_t>((i * 37) % 90);
    std::vector<std::uint8_t> frame(n);
    for (std::size_t j = 0; j < n; ++j) {
      frame[j] = static_cast<std::uint8_t>((next + j) & 0xff);
    }
    ASSERT_TRUE(r.producer.try_write(frame.data(), n)) << "iteration " << i;
    ASSERT_EQ(r.consumer.readable(), n);
    std::vector<std::uint8_t> got(n);
    r.consumer.peek(0, got.data(), n);
    EXPECT_EQ(got, frame) << "bytes corrupted across wrap at iteration " << i;
    // The appending read the shm pump uses, into a vector that starts
    // empty, must see the same bytes (its wrap branch included).
    std::vector<std::byte> appended;
    r.consumer.read_append(0, n, appended);
    ASSERT_EQ(appended.size(), n);
    EXPECT_EQ(std::memcmp(appended.data(), frame.data(), n), 0)
        << "appended bytes corrupted across wrap at iteration " << i;
    if (r.cap - (next % r.cap) < n) ++wrapped;
    r.consumer.consume(n);
    next += n;
  }
  EXPECT_EQ(r.producer.in_flight(), 0u);
  EXPECT_GT(wrapped, 0) << "no frame straddled the ring's end";
}

TEST(SpscRing, FullRingRefusesWritesUntilConsumed) {
  ring_fixture r;
  const std::size_t quarter = r.cap / 4;
  std::vector<std::uint8_t> chunk(quarter, 0xab);
  // Fill to the brim: 4 quarters = capacity.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(r.producer.try_write(chunk.data(), chunk.size()));
  }
  EXPECT_EQ(r.producer.free_space(), 0u);
  // Backpressure: a full ring refuses even one byte, and refusing must not
  // disturb anything already published.
  std::uint8_t one = 0xcd;
  EXPECT_FALSE(r.producer.try_write(&one, 1));
  EXPECT_EQ(r.consumer.readable(), r.cap);
  // Freeing exactly one chunk admits exactly one more.
  r.consumer.consume(quarter);
  EXPECT_EQ(r.producer.free_space(), quarter);
  EXPECT_FALSE(r.producer.try_write(chunk.data(), quarter + 1));
  EXPECT_TRUE(r.producer.try_write(chunk.data(), quarter));
  EXPECT_EQ(r.producer.free_space(), 0u);
}

TEST(SpscRing, StagedBytesInvisibleUntilPublish) {
  // The torn-size guard: a consumer must never observe a frame header
  // whose payload has not fully arrived. stage() copies bytes without
  // moving the shared tail; only publish() makes the whole batch visible,
  // so readable() jumps from 0 to header+payload atomically.
  ring_fixture r;
  const std::uint32_t hdr = 0xfeedface;
  std::vector<std::uint8_t> payload(48, 0x77);
  r.producer.stage(&hdr, sizeof(hdr));
  EXPECT_EQ(r.consumer.readable(), 0u) << "staged header leaked (torn frame)";
  r.producer.stage(payload.data(), payload.size());
  EXPECT_EQ(r.consumer.readable(), 0u) << "staged payload leaked";
  EXPECT_EQ(r.producer.staged(), sizeof(hdr) + payload.size());
  EXPECT_EQ(r.producer.publish(), sizeof(hdr) + payload.size());
  ASSERT_EQ(r.consumer.readable(), sizeof(hdr) + payload.size());
  std::uint32_t got_hdr = 0;
  r.consumer.peek(0, &got_hdr, sizeof(got_hdr));
  EXPECT_EQ(got_hdr, hdr);
}

TEST(SpscRing, MirrorIsContiguousAtEveryOffset) {
  // The consumer reads every frame as one span through its mirrored
  // mapping, wherever the head sits. Every head offset gets frames that
  // end just before, at and just past the end of the data area, plus a
  // one-byte and a whole-ring frame; every length up to the ring size gets
  // head offsets at the start, straddling the end, and on the last byte.
  // Each frame carries a fresh pattern and reads back byte-exact as one
  // span.
  ring_fixture r;
  const std::size_t cap = r.cap;
  std::vector<std::byte> frame(cap);
  std::uint64_t consumed = 0;
  std::uint64_t stamp = 0;
  std::size_t checked = 0;
  const auto check = [&](std::size_t head_offset, std::size_t n) {
    // Move the head to `head_offset` with a filler frame.
    const std::size_t pad = (head_offset + cap - consumed % cap) % cap;
    if (pad != 0) {
      ASSERT_TRUE(r.producer.try_write(frame.data(), pad));
      r.consumer.consume(pad);
      consumed += pad;
    }
    ++stamp;
    for (std::size_t i = 0; i < n; ++i) {
      frame[i] = static_cast<std::byte>((stamp * 131 + i * 7) & 0xff);
    }
    ASSERT_TRUE(r.producer.try_write(frame.data(), n));
    ASSERT_EQ(r.consumer.readable(), n);
    const auto got = r.consumer.read_span(0, n);
    ASSERT_EQ(std::memcmp(got.data(), frame.data(), n), 0)
        << "frame of " << n << " bytes at head offset " << head_offset;
    r.consumer.consume(n);
    consumed += n;
    ++checked;
  };
  for (std::size_t off = 0; off < cap; ++off) {
    for (const std::size_t n : {std::size_t{1}, cap - off - 1, cap - off,
                                cap - off + 1, cap}) {
      if (n >= 1 && n <= cap) check(off, n);
    }
  }
  for (std::size_t n = 1; n <= cap; ++n) {
    for (const std::size_t off : {std::size_t{0}, cap - n / 2, cap - 1}) {
      check(off % cap, n);
    }
  }
  // Five lengths per offset (four where one is out of range) and three
  // offsets per length.
  EXPECT_EQ(checked, 5 * cap - 2 + 3 * cap);
}

TEST(SpscRing, ThreadedProducerConsumerStress) {
  // Real concurrency across the release/acquire protocol (this is the test
  // TSan is for): length-prefixed frames with a rolling checksum, producer
  // spinning against free_space, consumer against readable. Any torn size
  // or reordered byte shows up as a checksum mismatch or a hang-guard trip.
  ring_fixture r;
  // 20000 frames of ~51 bytes per 256 ring bytes: about 4000 wraps
  // whatever the page size.
  const int kFrames = 20000 * static_cast<int>(r.cap / 256);
  std::atomic<bool> failed{false};

  std::thread producer([&] {
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < kFrames && !failed.load(std::memory_order_relaxed);
         ++i) {
      const std::uint8_t n = static_cast<std::uint8_t>(1 + (seed % 100));
      std::uint8_t frame[101];
      frame[0] = n;
      for (std::uint8_t j = 0; j < n; ++j) {
        frame[1 + j] = static_cast<std::uint8_t>((seed >> (j % 8)) & 0xff);
      }
      const std::size_t total = 1 + static_cast<std::size_t>(n);
      while (r.producer.free_space() < total) {
        std::this_thread::yield();
      }
      r.producer.stage(frame, total);
      r.producer.publish();
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    }
    r.producer.set_fin();
  });

  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  int got = 0;
  while (got < kFrames) {
    if (r.consumer.readable() < 1) {
      ASSERT_FALSE(r.consumer.fin() && r.consumer.readable() == 0 &&
                   got < kFrames)
          << "producer finished but frames are missing";
      std::this_thread::yield();
      continue;
    }
    std::uint8_t n = 0;
    r.consumer.peek(0, &n, 1);
    const std::size_t total = 1 + static_cast<std::size_t>(n);
    // Publication covers whole frames: a visible size implies the payload
    // is visible too. A torn write would trip exactly here.
    ASSERT_GE(r.consumer.readable(), total) << "torn frame at " << got;
    std::uint8_t body[100];
    r.consumer.peek(1, body, n);
    const std::uint8_t expect_n = static_cast<std::uint8_t>(1 + (seed % 100));
    ASSERT_EQ(n, expect_n) << "frame size corrupted at " << got;
    for (std::uint8_t j = 0; j < n; ++j) {
      ASSERT_EQ(body[j], static_cast<std::uint8_t>((seed >> (j % 8)) & 0xff))
          << "payload corrupted at frame " << got << " byte " << int(j);
    }
    r.consumer.consume(total);
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    ++got;
  }
  producer.join();
  EXPECT_EQ(r.producer.in_flight(), 0u);
}

// ----------------------------------------------------------- rendezvous

TEST(ShmHandshake, PoisonedSegmentEndsRendezvousWithAbortEcho) {
  // A peer that failed after its own handshake poisons every segment it
  // mapped and unlinks its own. Rank 0 here waits for a rank 1 segment that
  // will never appear; once its own segment is poisoned it must give up
  // with the abort echo the launcher discards, not wait out the 30 s
  // rendezvous deadline and report a timeout.
  char tmpl[] = "/tmp/ygm-shm-handshake-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string own = shm::segment_name(dir, 0);
  const auto start = std::chrono::steady_clock::now();

  std::string error;
  std::thread rank0([&] {
    try {
      shm::endpoint ep(dir, 0, 2, nullptr);
    } catch (const ygm::error& e) {
      error = e.what();
    }
  });

  // Map rank 0's segment once its header is initialized, then poison it.
  const std::size_t bytes = shm::segment_bytes(2);
  int fd = -1;
  while ((fd = ::shm_open(own.c_str(), O_RDWR, 0600)) < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  struct stat st{};
  while (::fstat(fd, &st) == 0 &&
         static_cast<std::size_t>(st.st_size) < bytes) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  EXPECT_NE(base, MAP_FAILED);
  if (base != MAP_FAILED) {
    auto* hdr = static_cast<shm::seg_header*>(base);
    while (hdr->magic.load(std::memory_order_acquire) != shm::seg_magic) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    hdr->aborted.store(1, std::memory_order_release);
  }
  rank0.join();
  const auto waited = std::chrono::steady_clock::now() - start;

  EXPECT_NE(error.find("world aborted"), std::string::npos) << error;
  EXPECT_LT(waited, std::chrono::seconds(5));
  if (base != MAP_FAILED) ::munmap(base, bytes);
  (void)::shm_unlink(own.c_str());
  ::rmdir(dir.c_str());
}

void expect_no_segments(const std::string& dir, int nranks) {
  for (int r = 0; r < nranks; ++r) {
    const std::string name = shm::segment_name(dir, r);
    errno = 0;
    const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
    if (fd >= 0) ::close(fd);
    EXPECT_LT(fd, 0) << "orphaned segment survived the sweep: " << name;
    EXPECT_EQ(errno, ENOENT) << name;
  }
}

TEST(ShmHandshake, PoisonBeforeSegmentExistsEndsRendezvous) {
  // Rank 1 died before creating its segment, and the launcher poisoned the
  // world before rank 0 had created its own: there was no flag to set.
  // Rank 0 must still give up at once with the abort echo, through the
  // marker the poison left in the directory, not after the 30 s deadline.
  char tmpl[] = "/tmp/ygm-shm-handshake-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  shm::poison_world(dir, 2);
  EXPECT_EQ(::access(shm::abort_marker(dir).c_str(), F_OK), 0);

  const auto start = steady_clock::now();
  std::string error;
  try {
    shm::endpoint ep(dir, 0, 2, nullptr);
  } catch (const ygm::error& e) {
    error = e.what();
  }
  const auto waited = steady_clock::now() - start;
  EXPECT_NE(error.find("shm world aborted during rendezvous"),
            std::string::npos)
      << error;
  EXPECT_LT(waited, std::chrono::seconds(5));

  // The failed handshake leaves its own segment, as a rank that dies in it
  // does; the launcher's sweep removes both, and so does this test.
  (void)::shm_unlink(shm::segment_name(dir, 0).c_str());
  expect_no_segments(dir, 2);
  EXPECT_EQ(::unlink(shm::abort_marker(dir).c_str()), 0);
  EXPECT_EQ(::rmdir(dir.c_str()), 0);
}

// ---------------------------------------------------- orphaned segments

/// Rank 1 of a 2x2 NodeRemote world SIGKILLs itself mid-send, so it never
/// unwinds, reports or poisons anyone; its peers soon block on it. The
/// launch must still fail within a deadline, naming the dead rank.
void expect_killed_rank_fails_fast(tp::backend_kind backend,
                                   const std::string& dir) {
  ygm::run_options o;
  o.nranks = 4;
  o.backend = backend;
  o.chaos = sim::chaos_config{};
  o.socket_dir = dir;
  const auto start = std::chrono::steady_clock::now();
  std::string error;
  try {
    ygm::launch(o, [](sim::comm& c) {
      ygm::core::comm_world world(c, ygm::routing::topology(2, 2),
                                  ygm::routing::scheme_kind::node_remote);
      ygm::core::mailbox<std::uint64_t> mb(world, [](std::uint64_t) {}, 256);
      for (std::uint64_t i = 0; i < 4000; ++i) {
        if (c.rank() == 1 && i == 1000) ::raise(SIGKILL);
        mb.send(static_cast<int>(i % 4), i);
      }
      mb.wait_empty();
    });
  } catch (const ygm::error& e) {
    error = e.what();
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_NE(error.find(std::string(tp::to_string(backend)) +
                       " rank 1 terminated without reporting (exit code 137)"),
            std::string::npos)
      << error;
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(ShmCleanup, AbnormalChildExitLeavesNoSegments) {
  // Children that die before their endpoint destructor never shm_unlink
  // their own segment; the launcher's post-reap sweep must. Use an
  // explicit rendezvous dir so the segment names are knowable afterwards.
  char tmpl[] = "/tmp/ygm-shm-orphan-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ygm::run_options o;
  o.nranks = 2;
  o.backend = tp::backend_kind::shm;
  o.chaos = sim::chaos_config{};
  o.socket_dir = dir;
  try {
    ygm::launch(o, [](sim::comm& c) {
      // Handshake is complete (the comm exists) and both segments are
      // mapped; now die without unwinding. Both ranks exit abruptly so no
      // survivor is left waiting out its fin deadline.
      c.barrier();
      ::_exit(2);
    });
    FAIL() << "expected abnormal child exits to surface as an error";
  } catch (const ygm::error&) {
    // Expected: ranks terminated without reporting.
  }
  expect_no_segments(dir, 2);

  // One rank killed while its peers run on: without the launcher's poison
  // they would park on it forever.
  expect_killed_rank_fails_fast(tp::backend_kind::shm, dir);
  expect_no_segments(dir, 4);
  // The poison left its marker in the caller's directory; the launcher
  // removed it with the segments.
  EXPECT_NE(::access(shm::abort_marker(dir).c_str(), F_OK), 0);
  ::rmdir(dir.c_str());
}

TEST(SocketCleanup, KilledRankFailsTheLaunchFast) {
  // Socket peers see the dead rank's sockets close; the same deadline holds.
  expect_killed_rank_fails_fast(tp::backend_kind::socket, "");
}

/// Fork a launcher whose ranks block in recv, SIGKILL it once every rank
/// is up, and require within a 10 s deadline that this process — their
/// subreaper — reaps every rank, and that no shm segment is left: each rank
/// notices in its bounded wait that its launcher is gone, fails, poisons
/// its peers and unlinks its own segment.
void expect_killed_launcher_leaves_nothing(tp::backend_kind backend) {
  constexpr int kRanks = 3;
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  char tmpl[] = "/tmp/ygm-orphan-launch-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  std::fflush(nullptr);
  const pid_t launcher = ::fork();
  ASSERT_GE(launcher, 0);
  if (launcher == 0) {
    ::close(ready[0]);
    try {
      tp::proc::launch(backend, kRanks, std::nullopt, dir,
                       [&](tp::endpoint& ep) {
                         const pid_t me = ::getpid();
                         (void)!::write(ready[1], &me, sizeof(me));
                         // Nobody sends: block until the launcher dies.
                         (void)ep.recv_match(tp::any_source, 1,
                                             tp::world_context);
                         return std::vector<std::byte>{};
                       });
    } catch (...) {
    }
    ::_exit(0);
  }
  ::close(ready[1]);

  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  std::vector<pid_t> ranks;
  while (ranks.size() < kRanks && steady_clock::now() < deadline) {
    pollfd pf{ready[0], POLLIN, 0};
    if (::poll(&pf, 1, 100) <= 0) continue;
    pid_t pid = 0;
    if (::read(ready[0], &pid, sizeof(pid)) != sizeof(pid)) break;
    ranks.push_back(pid);
  }
  ::close(ready[0]);
  EXPECT_EQ(ranks.size(), static_cast<std::size_t>(kRanks));
  ::kill(launcher, SIGKILL);
  int st = 0;
  while (::waitpid(launcher, &st, 0) < 0 && errno == EINTR) {
  }

  std::size_t reaped = 0;
  while (reaped < ranks.size() && steady_clock::now() < deadline) {
    const pid_t pid = ::waitpid(-1, &st, WNOHANG);
    if (pid > 0) {
      if (std::find(ranks.begin(), ranks.end(), pid) != ranks.end()) ++reaped;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reaped, ranks.size()) << "ranks outlived their launcher";
  if (backend == tp::backend_kind::shm) expect_no_segments(dir, kRanks);

  // Leave nothing behind whatever happened above.
  for (const pid_t pid : ranks) ::kill(pid, SIGKILL);
  while (::waitpid(-1, &st, WNOHANG) > 0) {
  }
  for (int r = 0; r < kRanks; ++r) {
    (void)::shm_unlink(shm::segment_name(dir, r).c_str());
    (void)::unlink((dir + "/" + std::to_string(r) + ".sock").c_str());
  }
  (void)std::system(("rm -rf '" + dir + "'").c_str());
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
}

TEST(ShmCleanup, KilledLauncherLeavesNoRanksOrSegments) {
  expect_killed_launcher_leaves_nothing(tp::backend_kind::shm);
}

TEST(SocketCleanup, KilledLauncherLeavesNoRanks) {
  expect_killed_launcher_leaves_nothing(tp::backend_kind::socket);
}

// --------------------------------------------------- frames lent in place

/// A 1 KiB trivially copyable record (the archive encodes it as its object
/// bytes). Every body byte carries its (source, sequence) pattern; `reply`
/// marks an answer to a request.
struct wide_rec {
  std::uint32_t src = 0xffffffffu;
  std::uint32_t seq = 0xffffffffu;
  std::uint32_t reply = 0;
  std::array<std::uint8_t, 1012> body{};
};
static_assert(sizeof(wide_rec) == 1024 && ygm::ser::is_bitwise_v<wide_rec>);

std::uint8_t wide_byte(std::uint32_t src, std::uint32_t seq, std::size_t i) {
  return static_cast<std::uint8_t>(src * 131u + seq * 7u + i * 13u + 1u);
}

wide_rec make_wide(int src, std::uint32_t seq, bool reply) {
  wide_rec r;
  r.src = static_cast<std::uint32_t>(src);
  r.seq = seq;
  r.reply = reply ? 1 : 0;
  for (std::size_t i = 0; i < r.body.size(); ++i) {
    r.body[i] = wide_byte(r.src, seq, i);
  }
  return r;
}

bool wide_ok(const wide_rec& r) {
  for (std::size_t i = 0; i < r.body.size(); ++i) {
    if (r.body[i] != wide_byte(r.src, r.seq, i)) return false;
  }
  return true;
}

/// Chaos off and polling progress unless a test says otherwise, so an
/// ambient YGM_CHAOS or YGM_PROGRESS cannot change what these tests see
/// (nothing is lent while a progress engine is attached).
ygm::run_options shm_options(int nranks) {
  ygm::run_options o;
  o.nranks = nranks;
  o.backend = tp::backend_kind::shm;
  o.chaos = sim::chaos_config{};
  o.progress_mode = ygm::progress::mode::polling;
  return o;
}

extern "C" void launch_deadline_expired(int) {
  static constexpr char msg[] = "launch still running after 10 s\n";
  (void)!::write(STDERR_FILENO, msg, sizeof(msg) - 1);
  ::_exit(1);
}

/// Run a launch and fail if it is not done within 10 s. A hung launch
/// cannot be cancelled, so the deadline (SIGALRM: the launcher stays
/// single-threaded, as forking requires) ends the test binary; the
/// orphaned ranks then notice their launcher is gone and exit.
void launch_within_deadline(const ygm::run_options& o,
                            const std::function<void(sim::comm&)>& body) {
  struct sigaction deadline{};
  struct sigaction before{};
  deadline.sa_handler = launch_deadline_expired;
  ::sigaction(SIGALRM, &deadline, &before);
  ::alarm(10);
  ygm::launch(o, body);
  ::alarm(0);
  ::sigaction(SIGALRM, &before, nullptr);
}

TEST(ShmLending, CountersSplitLentFromCopiedFrames) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "rank lanes compiled out with -DYGM_TELEMETRY=OFF";
#endif
  // 1 KiB records between 4 ranks, the repo benchmark's bulk_local shape:
  // without chaos nearly every frame is read where it lies in the ring.
  // With every message delayed, frames whose draw keeps them invisible
  // are copied into the slot instead.
  const auto run = [](const sim::chaos_config& chaos) {
    tel::session session;
    tel::set_global(&session);
    auto o = shm_options(4);
    o.chaos = chaos;
    ygm::launch(o, [](sim::comm& c) {
      constexpr std::uint32_t kPerPeer = 3000;
      ygm::core::comm_world world(c, ygm::routing::topology(1, 4),
                                  ygm::routing::scheme_kind::no_route);
      const int me = c.rank();
      std::uint64_t good = 0;
      ygm::core::mailbox<wide_rec> mb(
          world, [&](const wide_rec& r) { good += wide_ok(r) ? 1 : 0; });
      for (std::uint32_t s = 0; s < kPerPeer; ++s) {
        for (int k = 1; k < 4; ++k) mb.send((me + k) % 4, make_wide(me, s, false));
      }
      mb.wait_empty();
      EXPECT_EQ(good, 3u * kPerPeer);
    });
    tel::set_global(nullptr);
    const auto m = session.merged_metrics();
    // Data frames are the mailbox's packets; the rest of the frames are
    // control traffic (termination, barriers, credit), which is copied.
    return std::tuple{m.counters().at("transport.shm.frames_lent"),
                      m.counters().at("transport.shm.frames_copied"),
                      m.counters().at("mailbox.local_packets")};
  };
  const auto [lent, copied, data] = run(sim::chaos_config{});
  EXPECT_LE(lent, data);
  EXPECT_GE(lent * 10, data * 9) << lent << " of " << data
                                 << " data frames lent, " << copied
                                 << " frames copied";

  sim::chaos_config delayed;
  delayed.seed = 7;
  delayed.delay_prob = 1.0;
  delayed.max_delay_ticks = 4;
  const auto [delayed_lent, delayed_copied, delayed_data] = run(delayed);
  EXPECT_GT(delayed_copied + delayed_lent, delayed_data);
  EXPECT_LT(delayed_lent, delayed_data) << "no delayed frame was copied";
}

/// Every rank floods every peer with 1 KiB requests, and each callback
/// answers its request's sender with eight 1 KiB replies. Callbacks
/// therefore send — and flush inline — more than a ring holds into rings
/// their peers are filling at the same moment, while a frame lent to the
/// drain pins the ring the other side is blocked on. Only copying lent
/// frames out before a blocking wait keeps this live.
void run_replies_at_ring_full(int nranks, bool engine) {
  constexpr std::uint32_t kPerPeer = 1000;
  constexpr std::uint32_t kRepliesPerRequest = 8;
  auto o = shm_options(nranks);
  o.progress_mode =
      engine ? ygm::progress::mode::engine : ygm::progress::mode::polling;
  o.credit_bytes = 0;  // only the rings bound the flood
  launch_within_deadline(o, [](sim::comm& c) {
    const int me = c.rank();
    const int p = c.size();
    ygm::core::comm_world world(c, ygm::routing::topology(1, p),
                                ygm::routing::scheme_kind::no_route);
    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    std::uint64_t corrupt = 0;
    ygm::core::mailbox<wide_rec>* self = nullptr;
    ygm::core::mailbox<wide_rec> mb(
        world,
        [&](const wide_rec& r) {
          if (!wide_ok(r)) {
            ++corrupt;
          } else if (r.reply != 0) {
            ++replies;
          } else {
            ++requests;
            for (std::uint32_t k = 0; k < kRepliesPerRequest; ++k) {
              self->send(static_cast<int>(r.src), make_wide(me, r.seq, true));
            }
          }
        },
        64 * 1024);
    self = &mb;
    for (std::uint32_t s = 0; s < kPerPeer; ++s) {
      for (int k = 1; k < p; ++k) mb.send((me + k) % p, make_wide(me, s, false));
    }
    mb.wait_empty();
    const std::uint64_t want = static_cast<std::uint64_t>(p - 1) * kPerPeer;
    EXPECT_EQ(corrupt, 0u);
    EXPECT_EQ(requests, want);
    EXPECT_EQ(replies, want * kRepliesPerRequest);
  });
}

TEST(Shm, CallbacksReplyingAtRingFullComplete) {
  for (const int nranks : {2, 4}) {
    for (const bool engine : {false, true}) {
      SCOPED_TRACE(std::to_string(nranks) + " ranks, " +
                   (engine ? "engine" : "polling"));
      run_replies_at_ring_full(nranks, engine);
    }
  }
}

TEST(Shm, LentFramesKeepPerSourceOrderUnderChaos) {
  // Every message is delayed, so a ring frame is lent only when its draw
  // makes it visible at once; the others are copied into the slot under
  // their draw. Each (source, context) stream must still reach take() in
  // send order, some of it lent and some from the slot.
  static constexpr std::uint32_t kFrames = 400;
  static constexpr std::size_t kBytes = 256;
  auto o = shm_options(3);
  sim::chaos_config chaos;
  chaos.seed = 11;
  chaos.delay_prob = 1.0;
  chaos.max_delay_ticks = 3;
  o.chaos = chaos;
  launch_within_deadline(o, [](sim::comm& c) {
    const int me = c.rank();
    const int p = c.size();
    std::vector<std::uint32_t> next(static_cast<std::size_t>(p), 0);
    std::uint64_t got = 0;
    std::uint64_t lent = 0;
    std::uint64_t copied = 0;
    // Take whatever is visible; false once nothing is.
    const auto take_one = [&] {
      const auto packet = c.take(9);
      if (!packet) return false;
      const auto bytes = packet->bytes();
      const int src = packet->source();
      EXPECT_EQ(bytes.size(), kBytes);
      EXPECT_EQ(bytes[kBytes - 1], static_cast<std::byte>(src));
      std::uint32_t seq = 0;
      std::memcpy(&seq, bytes.data(), sizeof(seq));
      EXPECT_EQ(seq, next[static_cast<std::size_t>(src)])
          << "a frame from rank " << src << " was overtaken";
      next[static_cast<std::size_t>(src)] = seq + 1;
      ++(packet->lent() ? lent : copied);
      ++got;
      return true;
    };
    // Sends and takes interleave, so frames reach take() while their
    // stream is both empty in the slot and busy with delayed frames.
    for (std::uint32_t s = 0; s < kFrames; ++s) {
      for (int k = 1; k < p; ++k) {
        std::vector<std::byte> frame(kBytes, static_cast<std::byte>(me));
        std::memcpy(frame.data(), &s, sizeof(s));
        c.send_bytes((me + k) % p, 9, std::move(frame));
      }
      while (take_one()) {
      }
    }
    const std::uint64_t want = static_cast<std::uint64_t>(p - 1) * kFrames;
    const auto deadline = steady_clock::now() + std::chrono::seconds(8);
    while (got < want) {
      if (!take_one()) {
        ASSERT_LT(steady_clock::now(), deadline) << got << " frames taken";
      }
    }
    EXPECT_GT(lent, 0u);
    EXPECT_GT(copied, 0u);
    c.barrier();
  });
}

}  // namespace
