// Tests for the zero-copy mailbox hot path (docs/PERF.md):
//
//   * byte-identity fuzz of packet_append_inplace against the copy-based
//     packet_append across addresses (incl. the trace escape), payload
//     sizes straddling every varint width boundary, bcast flags, and
//     length-slot hints (matching, too narrow, too wide); the same for
//     packet_append_bitwise (fixed-width records) and for the encoded
//     record spans relays copy verbatim, all appended through one
//     packet_builder across its chunk growths and reallocations;
//   * buffer_pool unit behaviour: hit/miss accounting, the bounded
//     high-water retention that frees oversized buffers, the max_pooled
//     cap, and the sliding-window decay of the retention bound;
//   * a counting operator-new hook asserting the warm steady-state
//     send->flush->drain cycle performs ~zero heap allocations per
//     message, and broadcast fan-out (origin and relays) per broadcast;
//   * a 16-seed chaos sweep cross-checking that pooling never recycles a
//     buffer that still backs an in-flight span (payload corruption or
//     duplicate/lost deliveries would trip the delivery ledger).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/invariants.hpp"
#include "core/packet.hpp"
#include "core/ygm.hpp"
#include "mpisim/types.hpp"
#include "ser/serialize.hpp"

// ------------------------------------------------- counting operator new
//
// Global replacement, counting only while the calling thread opted in —
// gtest bookkeeping and the other rank threads never perturb a window.
// POD thread_locals only (no dynamic TLS init inside operator new).
namespace hotpath_alloc {
thread_local bool counting = false;
thread_local std::uint64_t news = 0;

struct window {
  window() { news = 0; counting = true; }
  ~window() { counting = false; }
  std::uint64_t count() const { return news; }
};
}  // namespace hotpath_alloc

// GCC pairs its builtin knowledge of new[]/free and flags the (correct,
// matched) malloc-backed replacements below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (hotpath_alloc::counting) ++hotpath_alloc::news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (hotpath_alloc::counting) ++hotpath_alloc::news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

namespace sim = ygm::mpisim;
using ygm::core::buffer_pool;
using ygm::core::comm_world;
using ygm::core::mailbox;
using ygm::core::packet_append;
using ygm::core::packet_append_bitwise;
using ygm::core::packet_append_inplace;
using ygm::core::packet_builder;
using ygm::core::packet_credit_escape;
using ygm::core::packet_reader;
using ygm::core::packet_trace_escape;
using ygm::core::run_chaos_trial;
using ygm::core::trial_config;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ------------------------------------------------ in-place byte identity

std::vector<std::byte> fuzz_payload(std::size_t len, std::uint64_t seed) {
  std::vector<std::byte> p(len);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (auto& b : p) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x & 0xFF);
  }
  return p;
}

struct pod16 {
  std::uint64_t a;
  std::uint32_t b;
  std::int16_t c;
  std::uint8_t d[2];
};
static_assert(sizeof(pod16) == 16 && ygm::ser::is_bitwise_v<pod16>);

std::array<std::byte, 64> fuzz_line(std::uint64_t seed) {
  std::array<std::byte, 64> line{};
  const auto bytes = fuzz_payload(line.size(), seed);
  std::copy(bytes.begin(), bytes.end(), line.begin());
  return line;
}

/// One record the reader must return, in stream order.
struct expected_record {
  bool is_bcast = false;
  int addr = -1;
  std::vector<std::byte> payload;
};

/// A packet appended through one packet_builder, and the same records
/// appended by copy (packet_append) into a plain vector.
struct mixed_stream {
  std::vector<std::byte> packet;     ///< the builder's take()
  std::vector<std::byte> reference;  ///< packet_append of the same records
  std::vector<expected_record> records;
  std::size_t reallocations = 0;  ///< capacity changes seen while building
};

/// `reps` rounds of: fixed-width records of 1, 8, 16 and 64 bytes at every
/// address of the list with both broadcast flags (raw stores through
/// room()/commit()), relays of the round's encoded record spans read back
/// from a copy-built packet (append()), a trace escape, an in-place record
/// and a credit escape (vec()/sync()). The builder starts from a small
/// reservation, so it grows chunk by chunk and reallocates several times.
mixed_stream build_mixed_stream(int reps) {
  const int addrs[] = {0, 1, 63, 64, 1000, packet_trace_escape};
  mixed_stream m;
  packet_builder builder;
  std::vector<std::byte> small;
  small.reserve(512);
  builder.adopt(std::move(small));
  std::size_t capacity = builder.capacity();
  const auto expect = [&](bool is_bcast, int addr,
                          std::span<const std::byte> payload) {
    packet_append(m.reference, is_bcast, addr, payload);
    m.records.push_back(
        {is_bcast, addr, {payload.begin(), payload.end()}});
    // Every append keeps the builder's size equal to the reference's.
    EXPECT_EQ(builder.size(), m.reference.size());
    if (builder.capacity() != capacity) {
      capacity = builder.capacity();
      ++m.reallocations;
    }
  };
  std::uint64_t seed = 1000;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::byte> round;  // this round's records, copy-appended
    const auto fixed = [&](const auto& v) {
      for (const int addr : addrs) {
        for (const bool bcast : {false, true}) {
          packet_append_bitwise(builder, bcast, addr, v);
          expect(bcast, addr, ygm::ser::to_bytes(v));
          packet_append(round, bcast, addr, ygm::ser::to_bytes(v));
        }
      }
    };
    for (int i = 0; i < 8; ++i) {
      ++seed;
      fixed(static_cast<std::uint8_t>(seed));
      fixed(std::uint64_t{seed * 0x9E3779B97F4A7C15ULL});
      fixed(pod16{seed, static_cast<std::uint32_t>(seed * 3),
                  static_cast<std::int16_t>(-static_cast<int>(seed % 100)),
                  {static_cast<std::uint8_t>(seed), 2}});
      fixed(fuzz_line(seed));
    }
    // Relays copy encoded spans verbatim, as forwards and broadcast
    // siblings do.
    for (packet_reader r({round.data(), round.size()}); !r.done();) {
      const auto rec = r.next();
      builder.append(rec.encoded);
      expect(rec.is_bcast, rec.addr, rec.payload);
    }
    // Escapes and the in-place serializer reach the vector itself.
    const auto trace = fuzz_payload(24, ++seed);
    packet_append(builder.vec(), false, packet_trace_escape, trace);
    builder.sync();
    expect(false, packet_trace_escape, trace);
    const auto inplace =
        fuzz_payload(100 + 37 * static_cast<std::size_t>(rep), ++seed);
    packet_append_inplace(builder.vec(), rep % 2 == 0, rep, 0,
                          [&](std::vector<std::byte>& out) {
                            out.insert(out.end(), inplace.begin(),
                                       inplace.end());
                          });
    builder.sync();
    expect(rep % 2 == 0, rep, inplace);
    std::array<std::byte, sizeof(std::uint64_t)> credit{};
    credit[0] = static_cast<std::byte>(rep);
    packet_append(builder.vec(), false, packet_credit_escape, credit);
    builder.sync();
    expect(false, packet_credit_escape, credit);
  }
  m.packet = builder.take();
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.capacity(), 0u);
  return m;
}

TEST(PacketInplace, ByteIdenticalToCopyAppendAcrossTheMatrix) {
  // Lengths straddle every varint width boundary the slot patching must
  // handle; hints force the matching, too-narrow, and too-wide cases.
  const std::size_t lens[] = {0, 1, 2, 127, 128, 129, 16383, 16384, 16385};
  const int addrs[] = {0, 1, 63, 64, 1000, packet_trace_escape};
  const std::size_t hints[] = {0, 1, 127, 128, 300, 16383, 16384, 70000};

  std::uint64_t seed = 0;
  for (const std::size_t len : lens) {
    const auto payload = fuzz_payload(len, ++seed);
    for (const int addr : addrs) {
      for (const bool bcast : {false, true}) {
        std::vector<std::byte> reference;
        packet_append(reference, bcast, addr, payload);
        for (const std::size_t hint : hints) {
          std::vector<std::byte> inplace;
          const auto rec = packet_append_inplace(
              inplace, bcast, addr, hint, [&](std::vector<std::byte>& out) {
                out.insert(out.end(), payload.begin(), payload.end());
              });
          ASSERT_EQ(inplace, reference)
              << "len=" << len << " addr=" << addr << " bcast=" << bcast
              << " hint=" << hint;
          ASSERT_EQ(rec.payload_size, len);
          ASSERT_EQ(rec.payload_offset + len, inplace.size());
        }
      }
    }
  }

  // The fixed-width record path: raw stores of a bitwise value must match
  // the archive's encoding appended by copy, for every address and flag.
  const auto check_bitwise = [&](const auto& v) {
    for (const int addr : addrs) {
      for (const bool bcast : {false, true}) {
        std::vector<std::byte> reference;
        packet_append(reference, bcast, addr, ygm::ser::to_bytes(v));
        packet_builder raw;
        packet_append_bitwise(raw, bcast, addr, v);
        ASSERT_EQ(raw.take(), reference)
            << "size=" << sizeof(v) << " addr=" << addr << " bcast=" << bcast;
      }
    }
  };
  check_bitwise(std::uint8_t{0xa5});
  check_bitwise(std::uint64_t{0x0123456789abcdefULL});
  check_bitwise(pod16{~0ULL, 7, -3, {1, 2}});
  check_bitwise(fuzz_line(99));

  // The same records as one stream through one builder, with relays and
  // escapes in between, across many chunk growths and reallocations.
  const mixed_stream m = build_mixed_stream(/*reps=*/12);
  ASSERT_GE(m.packet.size(), 8 * packet_builder::chunk_bytes);
  ASSERT_GE(m.reallocations, 2u);
  ASSERT_EQ(m.packet, m.reference);
}

TEST(PacketInplace, MultiRecordPacketRoundTripsThroughReader) {
  // Mixed hints and sizes in one packet, then read everything back.
  std::vector<std::byte> packet;
  std::vector<std::vector<std::byte>> payloads;
  std::size_t hint = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    payloads.push_back(fuzz_payload((i * 37) % 700, 100 + i));
    const auto rec = packet_append_inplace(
        packet, (i % 3) == 0, static_cast<int>(i), hint,
        [&](std::vector<std::byte>& out) {
          out.insert(out.end(), payloads.back().begin(),
                     payloads.back().end());
        });
    hint = rec.payload_size;  // the mailboxes' feedback loop
  }
  std::size_t i = 0;
  for (packet_reader r({packet.data(), packet.size()}); !r.done(); ++i) {
    const auto rec = r.next();
    ASSERT_LT(i, payloads.size());
    EXPECT_EQ(rec.addr, static_cast<int>(i));
    EXPECT_EQ(rec.is_bcast, (i % 3) == 0);
    ASSERT_EQ(rec.payload.size(), payloads[i].size());
    EXPECT_EQ(std::vector<std::byte>(rec.payload.begin(), rec.payload.end()),
              payloads[i]);
    // The span relays copy verbatim is exactly a fresh encoding.
    std::vector<std::byte> fresh;
    packet_append(fresh, rec.is_bcast, rec.addr, rec.payload);
    EXPECT_EQ(std::vector<std::byte>(rec.encoded.begin(), rec.encoded.end()),
              fresh);
  }
  EXPECT_EQ(i, payloads.size());

  // A builder's packet reads back record by record: fixed-width records,
  // relays, escapes and in-place records, in append order.
  const mixed_stream m = build_mixed_stream(/*reps=*/6);
  std::size_t k = 0;
  for (packet_reader r({m.packet.data(), m.packet.size()}); !r.done(); ++k) {
    const auto rec = r.next();
    ASSERT_LT(k, m.records.size());
    const expected_record& want = m.records[k];
    ASSERT_EQ(rec.addr, want.addr) << "record " << k;
    ASSERT_EQ(rec.is_bcast, want.is_bcast) << "record " << k;
    ASSERT_EQ(std::vector<std::byte>(rec.payload.begin(), rec.payload.end()),
              want.payload)
        << "record " << k;
  }
  EXPECT_EQ(k, m.records.size());
}

// ----------------------------------------------------- buffer_pool units

TEST(BufferPool, HitAndMissAccounting) {
  buffer_pool pool;
  auto a = pool.acquire(256);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_GE(a.capacity(), 256u);

  a.resize(100);
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  auto b = pool.acquire(256);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_TRUE(b.empty());          // recycled buffers come back cleared...
  EXPECT_GE(b.capacity(), 256u);   // ...with their capacity intact
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);  // the hit gave its capacity back
}

TEST(BufferPool, OversizedBuffersAreFreedNotPooled) {
  buffer_pool pool;
  // Establish a small working set: released sizes ~1 KiB.
  for (int i = 0; i < 4; ++i) {
    auto buf = pool.acquire();
    buf.resize(1024);
    pool.release(std::move(buf));
  }
  EXPECT_GE(pool.retain_bound(), 2 * buffer_pool::min_retain_bytes);

  // A buffer whose capacity blows past 2x the high-water must be dropped.
  std::vector<std::byte> big;
  big.reserve(4 * pool.retain_bound());
  const std::size_t before = pool.pooled();
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled(), before);  // freed, not pooled
}

TEST(BufferPool, RetentionBoundDecaysAfterTwoWindows) {
  buffer_pool pool;
  // One huge release raises the high-water (and thus the bound)...
  std::vector<std::byte> huge(1 << 20);
  pool.release(std::move(huge));
  const std::size_t raised = pool.retain_bound();
  EXPECT_GE(raised, std::size_t{2} << 20);
  // ...but after two full windows of small releases it must decay back.
  for (std::uint32_t i = 0; i < 2 * buffer_pool::window_releases; ++i) {
    std::vector<std::byte> small(64);
    pool.release(std::move(small));
  }
  EXPECT_EQ(pool.retain_bound(), 2 * buffer_pool::min_retain_bytes);
}

TEST(BufferPool, MaxPooledCapsRetention) {
  buffer_pool pool;
  for (std::size_t i = 0; i < buffer_pool::max_pooled + 16; ++i) {
    std::vector<std::byte> buf(128);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.pooled(), buffer_pool::max_pooled);
  pool.trim();
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
}

TEST(BufferPool, ByteBudgetCapsRetention) {
  buffer_pool pool;
  constexpr std::size_t mib = std::size_t{1} << 20;
  // Each release feeds the high-water *before* the drop check, so 1 MiB
  // buffers pass the size bound; only the byte budget stops retention —
  // well before the (large) count cap would.
  for (int i = 0; i < 17; ++i) {
    pool.release(std::vector<std::byte>(mib));
  }
  EXPECT_GE(pool.pooled(), 1u);
  EXPECT_LT(pool.pooled(), 16u);
  EXPECT_LE(pool.pooled_bytes(), buffer_pool::max_retained_bytes);
  EXPECT_GT(pool.drops(), 0u);
}

// ------------------------------------- steady-state allocation behaviour

struct steady_allocs {
  std::uint64_t p2p = 0;    ///< rank 0, across its all-to-all sends
  std::uint64_t bcast = 0;  ///< max over ranks, across the broadcast phase
};

/// Allocations counted across `msgs` all-to-all sends on rank 0's thread
/// (plus the flush/drain/forward work they trigger), then across `msgs`
/// broadcasts per rank on every rank's thread (origins and relays), each
/// after a warm-up pass that populates the pools and grows every buffer to
/// its working size.
steady_allocs steady_state_allocs(int msgs) {
  steady_allocs out;
  const topology topo(2, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    std::uint64_t sink = 0;
    mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t& v) { sink += v; }, 2048);

    auto all_to_all = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        for (int d = 0; d < c.size(); ++d) {
          if (d != c.rank()) mb.send(d, static_cast<std::uint64_t>(i));
        }
      }
    };

    // Warm-up: grow the coalescing buffers, seed every rank's pool, let
    // the termination detector allocate its state.
    all_to_all(msgs);
    mb.wait_empty();
    c.barrier();

    if (c.rank() == 0) {
      hotpath_alloc::window w;
      all_to_all(msgs);
      mb.flush();
      mb.poll();
      out.p2p = w.count();
    } else {
      all_to_all(msgs);
      mb.flush();
      mb.poll();
    }
    mb.wait_empty();
    c.barrier();

    // Broadcasts: every rank originates along the scheme's tree, and the
    // tree's gateways relay the other ranks' copies.
    auto broadcasts = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        mb.send_bcast(static_cast<std::uint64_t>(i));
      }
    };
    broadcasts(msgs);
    mb.wait_empty();
    c.barrier();
    std::uint64_t mine = 0;
    {
      hotpath_alloc::window w;
      broadcasts(msgs);
      mb.flush();
      mb.poll();
      mine = w.count();
    }
    mb.wait_empty();
    const std::uint64_t most = c.allreduce(mine, sim::op_max{});
    if (c.rank() == 0) out.bcast = most;
  });
  return out;
}

TEST(SteadyState, WarmHotPathIsAllocationFreePerMessage) {
  constexpr int kMsgs = 2000;
  const steady_allocs allocs = steady_state_allocs(kMsgs);
  const std::uint64_t sends = static_cast<std::uint64_t>(kMsgs) * 3;  // 3 peers
  // Residual allocations (mail_slot deque block churn, occasional pool
  // refills when traffic is momentarily asymmetric) must be noise, not
  // per-message cost: well under 2% of messages sent. Before pooling and
  // in-place serialization this ratio was > 1.
  EXPECT_LT(static_cast<double>(allocs.p2p),
            0.02 * static_cast<double>(sends))
      << allocs.p2p << " allocations across " << sends << " sends";
  // The same bound for broadcasts, each a message to each of the 3 peers,
  // on the busiest rank: fan-out reads the world's route table, so neither
  // originating nor relaying a broadcast allocates. (Reading a fresh
  // std::vector of hops per broadcast put this count near 10,000.)
  EXPECT_LT(static_cast<double>(allocs.bcast),
            0.02 * static_cast<double>(sends))
      << allocs.bcast << " allocations across " << kMsgs
      << " broadcasts to 3 peers";
}

// -------------------------------------- pooling vs in-flight spans (chaos)

/// 16 seeds: the delivery ledger checks every payload byte-for-byte at
/// quiescence, so a pooled buffer recycled while a span into it was still
/// in flight (the forward path holds spans into received packets; bcast
/// fan-out holds spans into sibling buffers) shows up as corruption,
/// duplication, or loss.
std::vector<std::string> pooled_trial(std::uint64_t seed) {
  trial_config t;
  t.seed = seed;
  t.scheme = static_cast<scheme_kind>(seed % 4);
  t.nodes = 2 + static_cast<int>(seed % 2);
  t.cores = 2;
  t.capacity = (seed % 3 == 0) ? 48 : 1024;  // tiny: flush mid-fan-out
  t.timed = (seed % 5) == 0;
  t.msgs_per_rank = 40;
  t.bcasts_per_rank = 4;
  t.epochs = 2;
  t.chaos = sim::chaos_config::heavy(seed);

  std::vector<std::string> all;
  ygm::launch({.nranks = t.num_ranks(), .chaos = t.chaos}, [&](sim::comm& c) {
    const auto local = run_chaos_trial(c, t);
    const auto gathered = c.gather(local, 0);
    if (c.rank() == 0) {
      for (const auto& per_rank : gathered) {
        all.insert(all.end(), per_rank.begin(), per_rank.end());
      }
    }
  });
  return all;
}

TEST(PoolingChaos, RecycledBuffersNeverAliasInFlightSpans) {
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    const auto v = pooled_trial(seed);
    EXPECT_TRUE(v.empty()) << "seed " << seed << ": " << v[0];
  }
}

}  // namespace
