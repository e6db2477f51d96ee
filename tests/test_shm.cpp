// Tests for the shm transport's building blocks that the end-to-end
// transport suite cannot isolate: the SPSC byte ring (wrap-around copies,
// full-ring backpressure, the torn-size publication guard — exercised with
// real producer/consumer threads so TSan sees the release/acquire
// protocol), the rendezvous giving up on a poisoned world, and the
// launcher's handling of ranks that die without unwinding: it poisons
// their shm peers (a SIGKILLed rank must fail the launch fast, on socket
// too) and sweeps their orphaned segments (no /dev/shm space may leak).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "transport/shm/shm_transport.hpp"
#include "transport/shm/spsc_ring.hpp"

namespace {

namespace shm = ygm::transport::shm;
namespace sim = ygm::mpisim;
namespace tp = ygm::transport;

// In-process ring fixture: one ctrl + data area, a producer view and an
// independent consumer view (the staged cursor is producer-private, so the
// two sides must never share a view — exactly like the two processes in
// the real backend).
struct ring_fixture {
  static constexpr std::size_t cap = 256;  // power of two, tiny: wraps often
  shm::ring_ctrl ctrl;
  alignas(64) std::byte data[cap];
  shm::ring_view producer;
  shm::ring_view consumer;

  ring_fixture() {
    ctrl.init();
    producer = shm::ring_view(&ctrl, data, cap);
    consumer = shm::ring_view(&ctrl, data, cap);
  }
};

TEST(SpscRing, FramesSurviveWrapAround) {
  ring_fixture r;
  // Frame sizes coprime with the capacity so the wrap point lands inside
  // headers, payloads, and everywhere in between over the run.
  std::uint64_t next = 0;
  int wrapped = 0;
  for (int i = 0; i < 500; ++i) {
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
    if (ring_fixture::cap - (next % ring_fixture::cap) < n) ++wrapped;
    r.consumer.consume(n);
    next += n;
  }
  EXPECT_EQ(r.producer.in_flight(), 0u);
  EXPECT_GT(wrapped, 0) << "no frame straddled the ring's end";
}

TEST(SpscRing, FullRingRefusesWritesUntilConsumed) {
  ring_fixture r;
  std::vector<std::uint8_t> chunk(64, 0xab);
  // Fill to the brim: 4 x 64 = 256 = capacity.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(r.producer.try_write(chunk.data(), chunk.size()));
  }
  EXPECT_EQ(r.producer.free_space(), 0u);
  // Backpressure: a full ring refuses even one byte, and refusing must not
  // disturb anything already published.
  std::uint8_t one = 0xcd;
  EXPECT_FALSE(r.producer.try_write(&one, 1));
  EXPECT_EQ(r.consumer.readable(), ring_fixture::cap);
  // Freeing exactly one chunk admits exactly one more.
  r.consumer.consume(64);
  EXPECT_EQ(r.producer.free_space(), 64u);
  EXPECT_FALSE(r.producer.try_write(chunk.data(), 65));
  EXPECT_TRUE(r.producer.try_write(chunk.data(), 64));
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

TEST(SpscRing, ThreadedProducerConsumerStress) {
  // Real concurrency across the release/acquire protocol (this is the test
  // TSan is for): length-prefixed frames with a rolling checksum, producer
  // spinning against free_space, consumer against readable. Any torn size
  // or reordered byte shows up as a checksum mismatch or a hang-guard trip.
  ring_fixture r;
  constexpr int kFrames = 20000;
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

// ---------------------------------------------------- orphaned segments

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
  ::rmdir(dir.c_str());
}

TEST(SocketCleanup, KilledRankFailsTheLaunchFast) {
  // Socket peers see the dead rank's sockets close; the same deadline holds.
  expect_killed_rank_fails_fast(tp::backend_kind::socket, "");
}

}  // namespace
