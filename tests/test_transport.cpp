// Tests for the transport substrate (src/transport/): backend selection,
// the multi-process socket backend (point-to-point, collectives,
// communicator algebra, abort propagation), the delivery-invariant ledger
// and a reduced chaos sweep on BOTH backends, cross-backend parity of a
// seeded workload, 1 KiB fixed-width records on every backend (in packets
// below and above 16 KiB), the mailbox's exact record-byte count on every
// backend, frames around every boundary of the shm ring, and per-backend
// telemetry publication.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/invariants.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "core/packet.hpp"
#include "routing/router.hpp"
#include "ser/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/endpoint.hpp"
#include "transport/shm/shm_transport.hpp"
#include "transport/wire.hpp"

namespace {

namespace sim = ygm::mpisim;
namespace tp = ygm::transport;
namespace tel = ygm::telemetry;

ygm::run_options on_backend(tp::backend_kind k, int nranks) {
  ygm::run_options o;
  o.nranks = nranks;
  o.backend = k;
  // Pin chaos off unless a test supplies its own config, so an ambient
  // YGM_CHAOS in the environment cannot skew the deterministic tests here.
  o.chaos = ygm::mpisim::chaos_config{};
  return o;
}

// --------------------------------------------------------- backend naming

TEST(Backend, NameRoundTrip) {
  EXPECT_EQ(tp::to_string(tp::backend_kind::inproc), "inproc");
  EXPECT_EQ(tp::to_string(tp::backend_kind::socket), "socket");
  EXPECT_EQ(tp::to_string(tp::backend_kind::shm), "shm");
  EXPECT_EQ(tp::backend_from_name("inproc"), tp::backend_kind::inproc);
  EXPECT_EQ(tp::backend_from_name("socket"), tp::backend_kind::socket);
  EXPECT_EQ(tp::backend_from_name("shm"), tp::backend_kind::shm);
  EXPECT_FALSE(tp::backend_from_name("tcp").has_value());
  EXPECT_FALSE(tp::backend_from_name("").has_value());
}

TEST(Backend, EnvSelection) {
  ASSERT_EQ(unsetenv("YGM_TRANSPORT"), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::inproc);
  ASSERT_EQ(setenv("YGM_TRANSPORT", "socket", 1), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::socket);
  ASSERT_EQ(setenv("YGM_TRANSPORT", "shm", 1), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::shm);
  ASSERT_EQ(setenv("YGM_TRANSPORT", "", 1), 0);
  EXPECT_EQ(tp::backend_from_env(), tp::backend_kind::inproc);
  // A typo must not silently fake multi-process coverage.
  ASSERT_EQ(setenv("YGM_TRANSPORT", "sockets", 1), 0);
  EXPECT_THROW((void)tp::backend_from_env(), ygm::error);
  ASSERT_EQ(unsetenv("YGM_TRANSPORT"), 0);
}

// ------------------------------------------------- socket backend basics

TEST(Socket, PointToPointAcrossProcesses) {
  const auto blobs = ygm::launch_collect(
      on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
        // Ring: send my rank left and right, typed.
        const int p = c.size();
        c.send(c.rank() * 10, (c.rank() + 1) % p, 7);
        c.send(std::string("hi from ") + std::to_string(c.rank()),
               (c.rank() + p - 1) % p, 8);
        const int from_left = c.recv<int>((c.rank() + p - 1) % p, 7);
        EXPECT_EQ(from_left, ((c.rank() + p - 1) % p) * 10);
        sim::status st;
        const auto greeting =
            c.recv<std::string>(sim::any_source, 8, &st);
        EXPECT_EQ(st.source, (c.rank() + 1) % p);
        EXPECT_EQ(greeting, "hi from " + std::to_string((c.rank() + 1) % p));
        // Each process must really be its own rank: the static below is
        // per-process state, so with forked ranks every rank sees 1.
        static int calls = 0;
        ++calls;
        auto out = std::vector<std::byte>{};
        ygm::ser::append_bytes(calls, out);
        return out;
      });
  ASSERT_EQ(blobs.size(), 4u);
  for (const auto& b : blobs) {
    EXPECT_EQ(ygm::ser::from_bytes<int>({b.data(), b.size()}), 1);
  }
}

TEST(Socket, CollectivesMatchInprocSemantics) {
  ygm::launch(on_backend(tp::backend_kind::socket, 5), [](sim::comm& c) {
    const int p = c.size();
    c.barrier();

    int v = c.rank() == 2 ? 99 : -1;
    c.bcast(v, 2);
    EXPECT_EQ(v, 99);

    const int sum = c.allreduce(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(sum, p * (p + 1) / 2);
    EXPECT_EQ(c.allreduce(static_cast<std::uint64_t>(c.rank() + 1),
                          sim::op_sum{}),
              static_cast<std::uint64_t>(p * (p + 1) / 2));

    const auto all = c.allgather(c.rank() * 2);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);

    std::vector<int> pieces;
    for (int r = 0; r < p; ++r) pieces.push_back(100 + r);
    EXPECT_EQ(c.scatter(pieces, 1), 100 + c.rank());

    EXPECT_EQ(c.scan(1, sim::op_sum{}), c.rank() + 1);
    EXPECT_EQ(c.exscan(1, sim::op_sum{}), c.rank());

    std::vector<std::vector<int>> sendbufs(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      sendbufs[static_cast<std::size_t>(dest)] = {c.rank(), dest};
    }
    const auto recvd = c.alltoallv(sendbufs);
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(recvd[static_cast<std::size_t>(src)],
                (std::vector<int>{src, c.rank()}));
    }
  });
}

TEST(Socket, SplitAndDup) {
  ygm::launch(on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
    auto half = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(half.size(), 2);
    const int hsum = half.allreduce(c.rank(), sim::op_sum{});
    EXPECT_EQ(hsum, c.rank() % 2 == 0 ? 0 + 2 : 1 + 3);

    auto clone = c.dup();
    // Traffic on the dup must not collide with the parent: exchange on both
    // with the same tag.
    const int peer = c.rank() ^ 1;
    c.send(c.rank(), peer, 3);
    clone.send(c.rank() + 100, peer, 3);
    EXPECT_EQ(c.recv<int>(peer, 3), peer);
    EXPECT_EQ(clone.recv<int>(peer, 3), peer + 100);
    c.barrier();
  });
}

TEST(Socket, RankFailurePropagatesWithoutDeadlock) {
  try {
    ygm::launch(on_backend(tp::backend_kind::socket, 4), [](sim::comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      // Other ranks block forever; the abort frame must wake them.
      (void)c.recv_bytes(sim::any_source, 0);
    });
    FAIL() << "expected the rank failure to rethrow in the parent";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 exploded"),
              std::string::npos);
  }
}

TEST(Socket, AssertionFailureInRankBodyFailsTheLaunch) {
  // A rank body runs in a forked child, whose gtest results die with it;
  // forked_rank_failures.cpp turns the failed assertion into an exception
  // the rank reports, so the launch fails. The child prints the failure.
  try {
    ygm::launch(on_backend(tp::backend_kind::socket, 2), [](sim::comm& c) {
      if (c.rank() == 1) ADD_FAILURE() << "deliberate rank-body failure";
      c.barrier();
    });
    FAIL() << "the rank body's failed assertion was lost";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find("deliberate rank-body failure"),
              std::string::npos)
        << e.what();
  }
}

TEST(Socket, SingleRankWorld) {
  ygm::launch(on_backend(tp::backend_kind::socket, 1), [](sim::comm& c) {
    c.barrier();
    c.send(41, 0, 0);  // self-send loops through the own slot
    EXPECT_EQ(c.recv<int>(0, 0), 41);
    EXPECT_EQ(c.allreduce(std::uint64_t{7}, sim::op_sum{}), 7u);
  });
}

// ------------------------------------- the shared receive loop, per backend

class ReceiveLoop : public ::testing::TestWithParam<tp::backend_kind> {};

TEST_P(ReceiveLoop, ProbeAndPending) {
  ygm::launch(on_backend(GetParam(), 4), [](sim::comm& c) {
    if (c.rank() == 0) {
      for (int dest = 1; dest < c.size(); ++dest) c.send(dest * 3, dest, 5);
      c.barrier();
    } else {
      const auto st = c.probe(0, 5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_GE(c.pending_messages(), 1u);
      const auto again = c.iprobe(0, 5);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->byte_count, st.byte_count);
      EXPECT_EQ(c.recv<int>(0, 5), c.rank() * 3);
      EXPECT_FALSE(c.iprobe(0, 5).has_value());
      c.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReceiveLoop,
    ::testing::Values(tp::backend_kind::inproc, tp::backend_kind::socket,
                      tp::backend_kind::shm),
    [](const ::testing::TestParamInfo<tp::backend_kind>& info) {
      return std::string(tp::to_string(info.param));
    });

// ------------------------------- large fixed-width records, per backend

// A 1 KiB trivially copyable record with no serialize(): the archive
// encodes it as its object bytes, and delivery copies those bytes straight
// into the object the callback sees. Every byte carries its (source,
// sequence) pattern, and the non-zero defaults make a callback handed a
// default-constructed record fail the check.
struct wide_rec {
  std::uint32_t src = 0xffffffffu;
  std::uint32_t seq = 0xffffffffu;
  std::array<std::uint8_t, 1016> body{};
};
static_assert(sizeof(wide_rec) == 1024 && ygm::ser::is_bitwise_v<wide_rec>);

std::uint8_t wide_byte(std::uint32_t src, std::uint32_t seq, std::size_t i) {
  return static_cast<std::uint8_t>(src * 131u + seq * 7u + i * 13u + 1u);
}

wide_rec make_wide(int src, std::uint32_t seq) {
  wide_rec r;
  r.src = static_cast<std::uint32_t>(src);
  r.seq = seq;
  for (std::size_t i = 0; i < r.body.size(); ++i) {
    r.body[i] = wide_byte(r.src, seq, i);
  }
  return r;
}

/// (backend, mailbox capacity). With three destinations per rank a packet
/// carries about a third of the capacity: 96 KiB makes packets of tens of
/// records (over wide_packet_split), 4 KiB packets of a few (well under
/// it). The "_spill" / "_inline" case names are kept from when shm carried
/// packets over 16 KiB through a second ring.
using wide_case = std::tuple<tp::backend_kind, std::size_t>;
constexpr std::size_t wide_spill_capacity = 96 * 1024;
constexpr std::size_t wide_inline_capacity = 4 * 1024;
constexpr std::size_t wide_packet_split = 16 * 1024;

class WideRecords : public ::testing::TestWithParam<wide_case> {};

TEST_P(WideRecords, EveryByteArrivesExactlyOnce) {
  const auto [backend, capacity] = GetParam();
  constexpr std::uint32_t per_dest = 200;
  ygm::launch(on_backend(backend, 4), [capacity](sim::comm& c) {
    ygm::core::comm_world world(c, ygm::routing::topology(1, 4),
                                ygm::routing::scheme_kind::no_route);
    const int me = c.rank();
    const int p = c.size();
    std::vector<std::vector<std::uint32_t>> seen(
        static_cast<std::size_t>(p), std::vector<std::uint32_t>(per_dest));
    std::uint64_t corrupt = 0;
    ygm::core::mailbox<wide_rec> mb(
        world,
        [&](const wide_rec& r) {
          bool ok = r.src < static_cast<std::uint32_t>(p) && r.seq < per_dest;
          for (std::size_t i = 0; ok && i < r.body.size(); ++i) {
            ok = r.body[i] == wide_byte(r.src, r.seq, i);
          }
          if (!ok) {
            ++corrupt;
            return;
          }
          ++seen[r.src][r.seq];
        },
        capacity);
    for (std::uint32_t s = 0; s < per_dest; ++s) {
      for (int k = 1; k < p; ++k) mb.send((me + k) % p, make_wide(me, s));
    }
    mb.wait_empty();
    EXPECT_EQ(corrupt, 0u);
    for (int src = 0; src < p; ++src) {
      const std::uint32_t want = src == me ? 0 : 1;
      for (std::uint32_t s = 0; s < per_dest; ++s) {
        ASSERT_EQ(seen[static_cast<std::size_t>(src)][s], want)
            << "record (" << src << ", " << s << ") at rank " << me;
      }
    }
    const double avg = mb.stats().avg_local_packet_bytes();
    if (capacity == wide_spill_capacity) {
      EXPECT_GT(avg, static_cast<double>(wide_packet_split));
    } else {
      EXPECT_LT(avg, static_cast<double>(wide_packet_split));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WideRecords,
    ::testing::Combine(::testing::Values(tp::backend_kind::inproc,
                                         tp::backend_kind::socket,
                                         tp::backend_kind::shm),
                       ::testing::Values(wide_spill_capacity,
                                         wide_inline_capacity)),
    [](const ::testing::TestParamInfo<wide_case>& info) {
      return std::string(tp::to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) == wide_spill_capacity ? "_spill"
                                                             : "_inline");
    });

// ------------------------------------------ exact record bytes per hop

/// (backend, causal-trace sample rate).
using record_bytes_case = std::tuple<tp::backend_kind, double>;

class RecordBytes : public ::testing::TestWithParam<record_bytes_case> {};

TEST_P(RecordBytes, CountsEveryHopOfAFixedStreamExactly) {
  // A fixed stream of 8-byte records over NodeRemote (so some take two
  // hops) plus broadcasts, with a small capacity and credit budget (many
  // packets, credit escapes, stalls that ship partial buffers). Whatever
  // trace escapes the sampling adds and whatever credit escapes the timing
  // adds, record_bytes is each record's encoded size once per hop.
  const auto [backend, sample] = GetParam();
  const ygm::routing::topology topo(2, 2);
  constexpr auto scheme = ygm::routing::scheme_kind::node_remote;
  constexpr std::uint64_t per_dest = 400;
  constexpr std::uint64_t bcasts = 50;
  auto opts = on_backend(backend, topo.num_ranks());
  opts.trace_sample = sample;
  opts.credit_bytes = 1024;
  // Sampling starts journeys only on ranks with a telemetry lane.
  tel::session session;
  tel::set_global(&session);
  const auto blobs = ygm::launch_collect(opts, [&](sim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);
    std::uint64_t delivered = 0;
    ygm::core::mailbox<std::uint64_t> mb(
        world, [&](const std::uint64_t&) { ++delivered; }, 512);
    for (std::uint64_t i = 0; i < per_dest; ++i) {
      for (int d = 0; d < c.size(); ++d) {
        if (d != c.rank()) mb.send(d, i);
      }
    }
    for (std::uint64_t i = 0; i < bcasts; ++i) mb.send_bcast(i);
    mb.wait_empty();
    const auto& st = mb.stats();
    return ygm::ser::to_bytes(std::vector<std::uint64_t>{
        st.record_bytes, st.local_bytes + st.remote_bytes, st.hops_sent,
        st.credit_stalls, st.credit_self_flushes, delivered});
  });
  tel::set_global(nullptr);

  const int p = topo.num_ranks();
  const ygm::routing::router route(scheme, topo);
  std::uint64_t want_bytes = 0;
  std::uint64_t p2p_hops = 0;
  for (int src = 0; src < p; ++src) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == src) continue;
      const auto hops = route.path(src, dst).size();
      p2p_hops += per_dest * hops;
      want_bytes += per_dest * hops *
                    ygm::core::packet_record_size(dst, sizeof(std::uint64_t));
    }
    // A broadcast reaches every other rank over exactly one tree edge.
    want_bytes += bcasts * static_cast<std::uint64_t>(p - 1) *
                  ygm::core::packet_record_size(src, sizeof(std::uint64_t));
  }
  std::uint64_t record_bytes = 0, packet_bytes = 0, hops_sent = 0;
  std::uint64_t stalls = 0, self_flushes = 0, delivered = 0;
  for (const auto& b : blobs) {
    const auto v =
        ygm::ser::from_bytes<std::vector<std::uint64_t>>({b.data(), b.size()});
    ASSERT_EQ(v.size(), 6u);
    record_bytes += v[0];
    packet_bytes += v[1];
    hops_sent += v[2];
    stalls += v[3];
    self_flushes += v[4];
    delivered += v[5];
  }
  const auto peers = static_cast<std::uint64_t>(p * (p - 1));
  EXPECT_EQ(delivered, peers * (per_dest + bcasts));
  EXPECT_EQ(hops_sent, p2p_hops + peers * bcasts);
  EXPECT_EQ(record_bytes, want_bytes);
  EXPECT_LE(self_flushes, stalls);
  std::uint64_t escapes = 0;
#if !defined(YGM_TELEMETRY_DISABLED)
  const auto m = session.merged_metrics();
  EXPECT_EQ(m.counters().at("mailbox.record_bytes"), want_bytes);
  EXPECT_EQ(m.counters().at("mailbox.credit_self_flushes"), self_flushes);
  // Every point-to-point hop of a sampled run carries its trace escape.
  // (trace.annotated_records is no per-hop count: in engine mode the
  // handoff batches annotate too, and forked engine threads have no lane.)
  if (sample == 1.0) {
    EXPECT_GT(m.counters().at("trace.annotated_records"), 0u);
    escapes = p2p_hops * ygm::core::packet_record_size(
                             ygm::core::packet_trace_escape,
                             tel::causal::wire_ctx_bytes);
  } else {
    EXPECT_EQ(m.counters().count("trace.annotated_records"), 0u);
  }
#endif
  EXPECT_GE(packet_bytes, record_bytes + escapes);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RecordBytes,
    ::testing::Combine(::testing::Values(tp::backend_kind::inproc,
                                         tp::backend_kind::socket,
                                         tp::backend_kind::shm),
                       ::testing::Values(0.0, 1.0)),
    [](const ::testing::TestParamInfo<record_bytes_case>& info) {
      return std::string(tp::to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) == 0.0 ? "_untraced" : "_traced");
    });

// --------------------------------------------------- shm backend basics

TEST(Shm, PointToPointAcrossProcesses) {
  const auto blobs = ygm::launch_collect(
      on_backend(tp::backend_kind::shm, 4), [](sim::comm& c) {
        const int p = c.size();
        c.send(c.rank() * 10, (c.rank() + 1) % p, 7);
        c.send(std::string("hi from ") + std::to_string(c.rank()),
               (c.rank() + p - 1) % p, 8);
        const int from_left = c.recv<int>((c.rank() + p - 1) % p, 7);
        EXPECT_EQ(from_left, ((c.rank() + p - 1) % p) * 10);
        sim::status st;
        const auto greeting = c.recv<std::string>(sim::any_source, 8, &st);
        EXPECT_EQ(st.source, (c.rank() + 1) % p);
        EXPECT_EQ(greeting, "hi from " + std::to_string((c.rank() + 1) % p));
        // Real process isolation, same witness as the socket test.
        static int calls = 0;
        ++calls;
        auto out = std::vector<std::byte>{};
        ygm::ser::append_bytes(calls, out);
        return out;
      });
  ASSERT_EQ(blobs.size(), 4u);
  for (const auto& b : blobs) {
    EXPECT_EQ(ygm::ser::from_bytes<int>({b.data(), b.size()}), 1);
  }
}

TEST(Shm, CollectivesMatchInprocSemantics) {
  ygm::launch(on_backend(tp::backend_kind::shm, 5), [](sim::comm& c) {
    const int p = c.size();
    c.barrier();
    int v = c.rank() == 2 ? 99 : -1;
    c.bcast(v, 2);
    EXPECT_EQ(v, 99);
    const int sum = c.allreduce(c.rank() + 1, sim::op_sum{});
    EXPECT_EQ(sum, p * (p + 1) / 2);
    const auto all = c.allgather(c.rank() * 2);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);
    }
    std::vector<std::vector<int>> sendbufs(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      sendbufs[static_cast<std::size_t>(dest)] = {c.rank(), dest};
    }
    const auto recvd = c.alltoallv(sendbufs);
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(recvd[static_cast<std::size_t>(src)],
                (std::vector<int>{src, c.rank()}));
    }
  });
}

TEST(Shm, LargePayloadsSpillThroughSharedPool) {
  // Payloads far beyond the ring (256 KiB) must stream through intact,
  // both directions at once so the chunked stream is exercised under
  // crossing traffic: each producer waits for room while pumping its own
  // inbound ring.
  ygm::launch(on_backend(tp::backend_kind::shm, 2), [](sim::comm& c) {
    const int peer = c.rank() ^ 1;
    std::vector<std::uint8_t> big(3 * 256 * 1024 + 12345);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>((i * 131 + c.rank()) & 0xff);
    }
    c.send(big, peer, 4);
    const auto got = c.recv<std::vector<std::uint8_t>>(peer, 4);
    ASSERT_EQ(got.size(), big.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>((i * 131 + peer) & 0xff))
          << "corrupt streamed byte at offset " << i;
    }
    c.barrier();
  });
}

TEST(Shm, FramesOfEverySizeStreamIntact) {
  // Raw frames around every boundary of the one ring. The receiver starts
  // late, so the first frame leaves room for one header plus 10 bytes and
  // the 100-byte frame behind it is split across publishes; the others
  // straddle the old 16 KiB inline limit, exactly fill the ring, overrun
  // it by one byte, and span it three times over. Each rank sends in turn.
  constexpr std::size_t ring = tp::shm::ring_bytes;
  constexpr std::size_t hdr = sizeof(tp::wire_header);
  static constexpr std::array<std::size_t, 11> sizes = {
      ring - 2 * hdr - 10, 100,                                 //
      0,                   1,                                   //
      16 * 1024 - 1,       16 * 1024,      16 * 1024 + 1,       //
      ring - hdr,          ring - hdr + 1, ring,                //
      3 * ring + 12345};
  const auto byte_at = [](int src, std::size_t frame, std::size_t i) {
    return static_cast<std::byte>(static_cast<std::uint8_t>(
        static_cast<std::size_t>(src) * 89 + frame * 31 + i * 7 + 3));
  };
  ygm::launch(on_backend(tp::backend_kind::shm, 2), [&](sim::comm& c) {
    for (int sender = 0; sender < 2; ++sender) {
      if (c.rank() == sender) {
        for (std::size_t f = 0; f < sizes.size(); ++f) {
          std::vector<std::byte> frame(sizes[f]);
          for (std::size_t i = 0; i < frame.size(); ++i) {
            frame[i] = byte_at(sender, f, i);
          }
          c.send_bytes(sender ^ 1, 6, std::move(frame));
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (std::size_t f = 0; f < sizes.size(); ++f) {
          const auto got = c.recv_bytes(sender, 6);
          ASSERT_EQ(got.size(), sizes[f]) << "frame " << f;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], byte_at(sender, f, i))
                << "frame " << f << " byte " << i;
          }
        }
      }
      c.barrier();
    }
  });
}

TEST(Shm, RankFailurePropagatesWithoutDeadlock) {
  try {
    ygm::launch(on_backend(tp::backend_kind::shm, 4), [](sim::comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 exploded");
      (void)c.recv_bytes(sim::any_source, 0);
    });
    FAIL() << "expected the rank failure to rethrow in the parent";
  } catch (const ygm::error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 exploded"),
              std::string::npos);
  }
}

TEST(Shm, SingleRankWorld) {
  ygm::launch(on_backend(tp::backend_kind::shm, 1), [](sim::comm& c) {
    c.barrier();
    c.send(41, 0, 0);
    EXPECT_EQ(c.recv<int>(0, 0), 41);
    EXPECT_EQ(c.allreduce(std::uint64_t{7}, sim::op_sum{}), 7u);
  });
}

// ------------------------------------- ledger + reduced chaos, all backends

ygm::core::trial_config reduced_trial(std::uint64_t seed) {
  ygm::core::trial_config t;
  t.seed = seed;
  t.scheme = ygm::routing::scheme_kind::no_route;
  t.nodes = 2;
  t.cores = 2;
  t.capacity = 256;
  t.msgs_per_rank = 24;
  t.bcasts_per_rank = 2;
  t.epochs = 2;
  t.chaos = (seed % 2) == 0 ? sim::chaos_config::light(seed)
                            : sim::chaos_config::heavy(seed);
  return t;
}

std::vector<std::string> sweep_on(tp::backend_kind backend,
                                  const ygm::core::trial_config& t) {
  ygm::run_options opts;
  opts.nranks = t.num_ranks();
  opts.backend = backend;
  opts.chaos = t.chaos;
  const auto blobs = ygm::launch_collect(opts, [&t](sim::comm& c) {
    const auto local = ygm::core::run_chaos_trial(c, t);
    auto out = std::vector<std::byte>{};
    ygm::ser::append_bytes(local, out);
    return out;
  });
  std::vector<std::string> all;
  for (const auto& b : blobs) {
    auto local =
        ygm::ser::from_bytes<std::vector<std::string>>({b.data(), b.size()});
    all.insert(all.end(), local.begin(), local.end());
  }
  return all;
}

class LedgerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerSweep, InprocHoldsInvariants) {
  const auto t = reduced_trial(GetParam());
  const auto v = sweep_on(tp::backend_kind::inproc, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

TEST_P(LedgerSweep, SocketHoldsInvariants) {
  const auto t = reduced_trial(GetParam());
  const auto v = sweep_on(tp::backend_kind::socket, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

TEST_P(LedgerSweep, ShmHoldsInvariants) {
  const auto t = reduced_trial(GetParam());
  const auto v = sweep_on(tp::backend_kind::shm, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

// NLNR relays through node-local pivots and remote gateways, so these are
// the ledger cases where forwarded records cross process boundaries (the
// reduced trial above pins NoRoute).
TEST_P(LedgerSweep, SocketNlnrForwardingHoldsInvariants) {
  auto t = reduced_trial(GetParam());
  t.scheme = ygm::routing::scheme_kind::nlnr;
  const auto v = sweep_on(tp::backend_kind::socket, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

TEST_P(LedgerSweep, ShmNlnrForwardingHoldsInvariants) {
  auto t = reduced_trial(GetParam());
  t.scheme = ygm::routing::scheme_kind::nlnr;
  const auto v = sweep_on(tp::backend_kind::shm, t);
  EXPECT_TRUE(v.empty()) << t.describe() << "\nfirst violation: " << v.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerSweep, ::testing::Values(2u, 3u));

// ------------------------------------------------- cross-backend parity

// One rank's digest of everything its mailbox delivered: count plus an
// order-independent content hash (deliveries may interleave differently
// per backend; the multiset of delivered messages must not).
std::vector<std::byte> parity_workload(sim::comm& c, std::uint64_t seed) {
  const ygm::routing::topology topo(2, 2);
  ygm::core::comm_world world(c, topo,
                              ygm::routing::scheme_kind::node_local);
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  ygm::core::mailbox<ygm::core::probe_msg> mb(
      world,
      [&](const ygm::core::probe_msg& m) {
        std::uint64_t byte_sum = 0;
        for (const auto b : m.filler) byte_sum += b;
        ++count;
        hash += ygm::splitmix64(m.origin ^ ygm::splitmix64(m.kind) ^
                                ygm::splitmix64(m.seq + 1) ^
                                ygm::splitmix64(byte_sum + m.filler.size()));
      },
      256);

  ygm::core::delivery_ledger ledger(c.rank(), c.size());
  ygm::xoshiro256 rng(ygm::splitmix64(seed) ^
                      static_cast<std::uint64_t>(c.rank()));
  for (int i = 0; i < 48; ++i) {
    const int dest =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
    mb.send(dest, ledger.make_p2p(dest, static_cast<std::size_t>(rng.below(40))));
    if (rng.below(3) == 0) mb.poll();
  }
  for (int b = 0; b < 3; ++b) {
    mb.send_bcast(ledger.make_bcast(static_cast<std::size_t>(rng.below(24))));
  }
  mb.wait_empty();
  c.barrier();

  auto out = std::vector<std::byte>{};
  ygm::ser::append_bytes(std::pair<std::uint64_t, std::uint64_t>{count, hash},
                         out);
  return out;
}

TEST(Parity, SameSeededWorkloadSameLedgerOnAllBackends) {
  const std::uint64_t seed = 20260807;
  const auto digest_on = [&](tp::backend_kind k) {
    return ygm::launch_collect(on_backend(k, 4), [&](sim::comm& c) {
      return parity_workload(c, seed);
    });
  };
  const auto a = digest_on(tp::backend_kind::inproc);
  for (const auto k : {tp::backend_kind::socket, tp::backend_kind::shm}) {
    const auto b = digest_on(k);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
      const auto da =
          ygm::ser::from_bytes<std::pair<std::uint64_t, std::uint64_t>>(
              {a[r].data(), a[r].size()});
      const auto db =
          ygm::ser::from_bytes<std::pair<std::uint64_t, std::uint64_t>>(
              {b[r].data(), b[r].size()});
      EXPECT_EQ(da.first, db.first)
          << "delivery count diverged at rank " << r << " on "
          << tp::to_string(k);
      EXPECT_EQ(da.second, db.second)
          << "content hash diverged at rank " << r << " on "
          << tp::to_string(k);
      EXPECT_GT(da.first, 0u) << "rank " << r << " delivered nothing";
    }
  }
}

// ---------------------------------------------- telemetry per backend lane

TEST(Telemetry, ProbeCountersPublishedPerBackendLane) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "transport counters compiled out with -DYGM_TELEMETRY=OFF";
#endif
  tel::session session;
  tel::set_global(&session);

  ygm::run_options opts = on_backend(tp::backend_kind::inproc, 2);
  opts.chaos = sim::chaos_config::heavy(11);  // probe misses active
  ygm::launch(opts, [](sim::comm& c) {
    const int peer = c.rank() ^ 1;
    // Enough probe rounds that the 30% deterministic miss stream is
    // guaranteed to fire at least once.
    for (int i = 0; i < 32; ++i) {
      c.send(7 + i, peer, 1);
      while (!c.iprobe(peer, 1)) {
      }
      EXPECT_EQ(c.recv<int>(peer, 1), 7 + i);
    }
  });
  tel::set_global(nullptr);

  const auto m = session.merged_metrics();
  EXPECT_GT(m.counters().at("transport.inproc.posts"), 0u);
  EXPECT_GT(m.counters().at("transport.inproc.post_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.inproc.iprobe_calls"), 0u);
  EXPECT_GT(m.counters().at("transport.inproc.iprobe_draws"), 0u);
  // heavy chaos injects probe misses; the loop above retries through them.
  EXPECT_GT(m.counters().at("transport.inproc.iprobe_misses"), 0u);
}

TEST(Telemetry, CollectiveCountersMatchAcrossBackends) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "transport counters compiled out with -DYGM_TELEMETRY=OFF";
#endif
  // One barrier and one allreduce on 5 ranks: the dissemination barrier
  // sends 3 rounds x 5 tokens, the binomial reduce + broadcast 4 + 4
  // messages. Every backend must send exactly those messages and count
  // them identically, since the repo benchmark reads these counters.
  struct totals {
    std::uint64_t sends, recvs, collectives, posts;
    bool operator==(const totals&) const = default;
  };
  const auto totals_on = [](tp::backend_kind k) {
    tel::session session;
    tel::set_global(&session);
    ygm::launch(on_backend(k, 5), [](sim::comm& c) {
      c.barrier();
      EXPECT_EQ(c.allreduce(std::uint64_t(c.rank() + 1), sim::op_sum{}), 15u);
    });
    tel::set_global(nullptr);
    const auto m = session.merged_metrics();
    return totals{m.counters().at("mpi.sends"), m.counters().at("mpi.recvs"),
                  m.counters().at("mpi.collectives"),
                  m.counters().at("transport." + std::string(tp::to_string(k)) +
                                  ".posts")};
  };
  const totals expected{23, 23, 5, 23};
  for (const auto k : {tp::backend_kind::inproc, tp::backend_kind::socket,
                       tp::backend_kind::shm}) {
    const totals t = totals_on(k);
    EXPECT_EQ(t, expected) << tp::to_string(k) << ": sends=" << t.sends
                           << " recvs=" << t.recvs
                           << " collectives=" << t.collectives
                           << " posts=" << t.posts;
  }
}

TEST(Telemetry, SocketLaneShipsAcrossProcesses) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "rank lanes compiled out with -DYGM_TELEMETRY=OFF";
#endif
  tel::session session;
  tel::set_global(&session);
  ygm::launch(on_backend(tp::backend_kind::socket, 3), [](sim::comm& c) {
    tel::count("test.sockets.child_counter", 5);
    c.send(c.rank(), (c.rank() + 1) % c.size(), 2);
    (void)c.recv<int>(sim::any_source, 2);
    c.barrier();
  });
  tel::set_global(nullptr);

  const auto m = session.merged_metrics();
  // Child-recorded metrics arrive in the parent session...
  EXPECT_EQ(m.counters().at("test.sockets.child_counter"), 15u);
  // ...as do the endpoint's own transport counters, wire stats included.
  EXPECT_GT(m.counters().at("transport.socket.posts"), 0u);
  EXPECT_GT(m.counters().at("transport.socket.wire_tx_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.socket.wire_rx_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.socket.wire_sendmsg_calls"), 0u);
  EXPECT_GT(m.counters().at("mpi.sends"), 0u);
}

TEST(Telemetry, ShmLaneShipsAcrossProcesses) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "rank lanes compiled out with -DYGM_TELEMETRY=OFF";
#endif
  tel::session session;
  tel::set_global(&session);
  ygm::launch(on_backend(tp::backend_kind::shm, 3), [](sim::comm& c) {
    tel::count("test.shm.child_counter", 5);
    c.send(c.rank(), (c.rank() + 1) % c.size(), 2);
    (void)c.recv<int>(sim::any_source, 2);
    c.barrier();
  });
  tel::set_global(nullptr);

  const auto m = session.merged_metrics();
  EXPECT_EQ(m.counters().at("test.shm.child_counter"), 15u);
  // The endpoint's teardown publishes ring traffic onto the rank lane,
  // which must ship to the parent like any other counter.
  EXPECT_GT(m.counters().at("transport.shm.posts"), 0u);
  EXPECT_GT(m.counters().at("transport.shm.ring_tx_bytes"), 0u);
  EXPECT_GT(m.counters().at("transport.shm.ring_rx_bytes"), 0u);
  EXPECT_GT(m.counters().at("mpi.sends"), 0u);
}

}  // namespace
