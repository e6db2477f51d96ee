// Tests for the graph substrate (graph/): generators, partitioning,
// scrambling, delegate selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/ygm.hpp"
#include "graph/delegates.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::graph::delegate_set;
using ygm::graph::edge;
using ygm::graph::erdos_renyi_generator;
using ygm::graph::rmat_generator;
using ygm::graph::rmat_params;
using ygm::graph::round_robin_partition;
using ygm::graph::vertex_id;

// ----------------------------------------------------------- partitioning

TEST(Partition, RoundRobinMappingRoundTrips) {
  // owner()/local_index() take a shift and mask for P a power of two and
  // divide otherwise; check them against % and / for every P up to 4100
  // (all powers of two and primes there, both code paths) and the largest
  // int P, on edge ids and a seeded spread of magnitudes.
  ygm::xoshiro256 rng(1994);
  std::vector<vertex_id> random_ids(10000);
  for (auto& v : random_ids) v = rng() >> rng.below(64);
  std::vector<int> ps;
  for (int p = 1; p <= 4100; ++p) ps.push_back(p);
  ps.push_back(2147483647);  // 2^31 - 1
  for (const int p : ps) {
    const round_robin_partition part{p};
    ASSERT_EQ(part.num_ranks(), p);
    const auto d = static_cast<vertex_id>(p);
    std::vector<vertex_id> ids = {0,     1,
                                  d - 1, d,
                                  vertex_id{1} << 62, ~vertex_id{0}};
    ids.insert(ids.end(), random_ids.begin(), random_ids.end());
    for (const vertex_id v : ids) {
      const int o = part.owner(v);
      const std::uint64_t i = part.local_index(v);
      if (o != static_cast<int>(v % d) || i != v / d ||
          part.global_id(o, i) != v) {
        FAIL() << "P=" << p << " v=" << v << ": owner " << o
               << " local_index " << i;
      }
    }
  }
}

TEST(Partition, RejectsANonPositiveRankCount) {
  EXPECT_THROW(round_robin_partition{0}, ygm::error);
  EXPECT_THROW(round_robin_partition{-3}, ygm::error);
}

TEST(Partition, LocalCountsSumToTotal) {
  for (int p : {1, 3, 7}) {
    const round_robin_partition part{p};
    for (std::uint64_t n : {0ULL, 1ULL, 13ULL, 100ULL}) {
      std::uint64_t sum = 0;
      for (int r = 0; r < p; ++r) sum += part.local_count(r, n);
      EXPECT_EQ(sum, n);
    }
  }
}

TEST(Partition, LocalIndicesAreDense) {
  const round_robin_partition part{4};
  const std::uint64_t n = 19;
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t cnt = part.local_count(r, n);
    for (std::uint64_t i = 0; i < cnt; ++i) {
      const vertex_id v = part.global_id(r, i);
      EXPECT_LT(v, n);
      EXPECT_EQ(part.owner(v), r);
      EXPECT_EQ(part.local_index(v), i);
    }
  }
}

// ------------------------------------------------------------- generators

TEST(ErdosRenyi, SliceDistributesEdgesExactly) {
  for (std::uint64_t m : {0ULL, 1ULL, 10ULL, 1000003ULL}) {
    for (int p : {1, 4, 7}) {
      std::uint64_t sum = 0;
      for (int r = 0; r < p; ++r) {
        sum += erdos_renyi_generator::slice(m, r, p);
      }
      EXPECT_EQ(sum, m);
    }
  }
}

TEST(ErdosRenyi, IsDeterministicPerRank) {
  const erdos_renyi_generator g1(1000, 500, 7, 2, 4);
  const erdos_renyi_generator g2(1000, 500, 7, 2, 4);
  std::vector<edge> e1, e2;
  g1.for_each([&](const edge& e) { e1.push_back(e); });
  g2.for_each([&](const edge& e) { e2.push_back(e); });
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(e1.size(), g1.local_edge_count());
}

TEST(ErdosRenyi, DifferentRanksProduceDifferentStreams) {
  const erdos_renyi_generator g0(1000, 500, 7, 0, 4);
  const erdos_renyi_generator g1(1000, 500, 7, 1, 4);
  std::vector<edge> e0, e1;
  g0.for_each([&](const edge& e) { e0.push_back(e); });
  g1.for_each([&](const edge& e) { e1.push_back(e); });
  EXPECT_NE(e0, e1);
}

TEST(ErdosRenyi, EndpointsInRangeAndRoughlyUniform) {
  const vertex_id n = 64;
  const erdos_renyi_generator g(n, 64000, 11, 0, 1);
  std::vector<std::uint64_t> hist(n, 0);
  g.for_each([&](const edge& e) {
    ASSERT_LT(e.src, n);
    ASSERT_LT(e.dst, n);
    ++hist[e.src];
    ++hist[e.dst];
  });
  // 128000 endpoint samples over 64 bins: expect 2000 each, allow 4x sigma.
  for (auto h : hist) {
    EXPECT_GT(h, 1700u);
    EXPECT_LT(h, 2300u);
  }
}

// ----------------------------------------------------------------- RMAT

TEST(Rmat, ScrambleIsABijection) {
  for (int scale : {1, 4, 10, 16}) {
    const vertex_id n = vertex_id{1} << scale;
    std::vector<bool> seen(n, false);
    for (vertex_id v = 0; v < n; ++v) {
      const vertex_id s = ygm::graph::scramble_vertex(v, scale);
      ASSERT_LT(s, n);
      ASSERT_FALSE(seen[s]) << "collision at scale " << scale;
      seen[s] = true;
    }
  }
}

TEST(Rmat, IsDeterministicAndInRange) {
  const rmat_generator g1(10, 5000, rmat_params::graph500(), 3, 1, 3);
  const rmat_generator g2(10, 5000, rmat_params::graph500(), 3, 1, 3);
  std::vector<edge> e1, e2;
  g1.for_each([&](const edge& e) {
    ASSERT_LT(e.src, g1.num_vertices());
    ASSERT_LT(e.dst, g1.num_vertices());
    e1.push_back(e);
  });
  g2.for_each([&](const edge& e) { e2.push_back(e); });
  EXPECT_EQ(e1, e2);
}

// A graph experiment is identified by its generator arguments, so the edge
// stream they name must not drift when the sampler is rewritten. Each
// digest folds three rank slices; the constants were recorded from the
// if/else quadrant chain the branch-free sampler replaced (x86-64 baseline,
// no FMA; see graph/rmat.hpp).
TEST(Rmat, EdgeStreamMatchesPinnedDigests) {
  struct slice_case {
    std::uint64_t seed;
    int rank;
    int nranks;
  };
  constexpr slice_case kSlices[] = {{1, 0, 1}, {7, 2, 3}, {0x5eed, 5, 8}};
  constexpr int kScales[] = {1, 7, 16, 40, 62};
  const auto digest = [&](int scale, const rmat_params& p) {
    std::uint64_t h = 0;
    for (const auto& s : kSlices) {
      const rmat_generator g(scale, 768, p, s.seed, s.rank, s.nranks);
      g.for_each([&](const edge& e) {
        h = ygm::splitmix64(h ^ e.src);
        h = ygm::splitmix64(h ^ e.dst);
      });
    }
    return h;
  };
  const std::pair<const char*, rmat_params> presets[] = {
      {"graph500", rmat_params::graph500()},
      {"uniform", rmat_params::uniform()},
      {"webgraph_like", rmat_params::webgraph_like()}};
  // [preset][noise][scramble][scale]; scale 1 is unchanged by scrambling.
  constexpr std::uint64_t kPinned[3][2][2][5] = {
      {{{0xabcbb04176d8107d, 0x413108b4824e8a6d, 0x1655356bea3b2335,
         0x9fa22c5695d8f3a5, 0xd2fff49907e5a1cb},
        {0xabcbb04176d8107d, 0xcf98b8d7639ec630, 0xa710c6f5d96d7739,
         0x2e3c8eba40a26aae, 0xcdb59003a123dcc6}},
       {{0x70aeaaebe1c98bcf, 0x9ca74daab0a99566, 0x7369915a12549fd9,
         0xaf89461759d4b16c, 0x3d0de8e7d846e7cf},
        {0x70aeaaebe1c98bcf, 0x95f6e553f563e176, 0xf9a0d8b44963842c,
         0xdc0835f0a321149b, 0x7e6302ff65ebd24d}}},
      {{{0x5f7ed96a1745c3b5, 0xd94625339d9007af, 0x5ac55fb6d4d8f6e8,
         0x813182de7876ee19, 0x5b945e1731f928e5},
        {0x5f7ed96a1745c3b5, 0x66738e1bdb2e73db, 0x4fed58fcd53c48d7,
         0x6a4294b779b964b1, 0x2c1023ee733c9fcf}},
       {{0x083fe5a4cdcb7d48, 0xe32d2eb20e30f8d6, 0xc72389d3a44eaea6,
         0x605b3078d8d2df57, 0x17f28366a98b354f},
        {0x083fe5a4cdcb7d48, 0xe7af0e51ff3d649f, 0x3a409bae8e7184ae,
         0xcc87e04ffc01d244, 0xf22aa2a4bcd401c8}}},
      {{{0x896212831e94887a, 0xef6f5d7154d91c75, 0x2b9ce501733fd2e0,
         0x66dbba83cf1ebacc, 0xe7c5a85b07fe0dab},
        {0x896212831e94887a, 0x81e87f22f064293c, 0xb302adf8bc63e8c5,
         0xf87a8244e9bb6bd2, 0x7fb6665bf13cef43}},
       {{0xfd3e6e40ba0c17fd, 0xfc85bccdcb5ffd0c, 0xbf36ec699b7c74bf,
         0xb1e6dadb80e3f93f, 0x6879f0ad70de5594},
        {0xfd3e6e40ba0c17fd, 0x336f985efa6e13fc, 0x03f2b4d990c6f06d,
         0x767e3c2bb03f4f03, 0xbf1ae54b1d241ce0}}}};
  for (int pi = 0; pi < 3; ++pi) {
    for (const bool noise : {false, true}) {
      for (const bool scramble : {false, true}) {
        rmat_params p = presets[pi].second;
        p.noise = noise;
        p.scramble = scramble;
        for (int si = 0; si < 5; ++si) {
          EXPECT_EQ(digest(kScales[si], p), kPinned[pi][noise][scramble][si])
              << presets[pi].first << " noise=" << noise
              << " scramble=" << scramble << " scale=" << kScales[si];
        }
      }
    }
  }
}

TEST(Rmat, RejectsInvalidParameters) {
  EXPECT_THROW(rmat_generator(0, 10, rmat_params::graph500(), 1, 0, 1),
               ygm::error);
  rmat_params bad;
  bad.a = 0.9;  // sums to 1.33
  EXPECT_THROW(rmat_generator(8, 10, bad, 1, 0, 1), ygm::error);
}

TEST(Rmat, SkewedParametersProduceHubs) {
  // Graph500 parameters must yield a far heavier maximum degree than the
  // uniform setting on the same vertex/edge budget.
  const int scale = 12;
  const std::uint64_t edges = 16ULL << scale;
  const auto max_degree = [&](const rmat_params& p) {
    const rmat_generator g(scale, edges, p, 5, 0, 1);
    std::vector<std::uint64_t> deg(g.num_vertices(), 0);
    g.for_each([&](const edge& e) {
      ++deg[e.src];
      ++deg[e.dst];
    });
    return *std::max_element(deg.begin(), deg.end());
  };
  const auto skewed = max_degree(rmat_params::graph500());
  const auto uniform = max_degree(rmat_params::uniform());
  EXPECT_GT(skewed, 4 * uniform);
  const auto web = max_degree(rmat_params::webgraph_like());
  EXPECT_GT(web, skewed);  // the webgraph stand-in is even more skewed
}

TEST(Rmat, UniformParametersMatchErdosRenyiStatistics) {
  const int scale = 10;
  const vertex_id n = vertex_id{1} << scale;
  const std::uint64_t edges = 64 * n;
  const rmat_generator g(scale, edges, rmat_params::uniform(), 5, 0, 1);
  std::vector<std::uint64_t> deg(n, 0);
  g.for_each([&](const edge& e) {
    ++deg[e.src];
    ++deg[e.dst];
  });
  // Mean endpoint count 128 per vertex; a uniform graph keeps the max within
  // a small factor of the mean.
  const auto mx = *std::max_element(deg.begin(), deg.end());
  EXPECT_LT(mx, 128 * 3);
}

TEST(Rmat, ExpectedMaxDegreeGrowsWithScale) {
  const auto p = rmat_params::graph500();
  const double d20 = ygm::graph::expected_max_degree(20, 16ULL << 20, p);
  const double d24 = ygm::graph::expected_max_degree(24, 16ULL << 24, p);
  EXPECT_GT(d24, d20);
  // Growth factor per scale step is 2*(a+b) = 1.52.
  EXPECT_NEAR(d24 / d20, std::pow(2 * (p.a + p.b), 4), 1e-6);
}

// -------------------------------------------------------------- delegates

TEST(Delegates, SetMapsIdsToDenseSlots) {
  const delegate_set d({3, 17, 42});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_TRUE(d.contains(17));
  EXPECT_FALSE(d.contains(4));
  EXPECT_EQ(d.slot(3), 0u);
  EXPECT_EQ(d.slot(42), 2u);
  EXPECT_EQ(d.id_of_slot(1), 17u);
}

TEST(Delegates, RejectsUnsortedOrDuplicateIds) {
  EXPECT_THROW(delegate_set({5, 3}), ygm::error);
  EXPECT_THROW(delegate_set({3, 3}), ygm::error);
}

TEST(Delegates, EmptySetBehaves) {
  const delegate_set d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_FALSE(d.contains(0));
}

TEST(Delegates, CollidingIdsMatchAnOrderedMapOracle) {
  // Multiples of 2^20 share their low bits, the worst case for a table
  // indexed by them. The 60000 seeded ids half-fill a 2^17-bucket table,
  // so about half of the non-member probes start in an occupied bucket
  // and walk a run before they miss; the dense probe around every member
  // asks for 64 non-members per member.
  ygm::xoshiro256 rng(2024);
  std::vector<vertex_id> spaced;
  for (vertex_id k = 0; k < 5000; ++k) spaced.push_back(k << 20);
  std::set<vertex_id> seeded;
  while (seeded.size() < 60000) seeded.insert(rng() >> 8);
  for (const auto& ids : {spaced, std::vector<vertex_id>(seeded.begin(),
                                                         seeded.end())}) {
    std::map<vertex_id, std::uint64_t> oracle;
    for (const vertex_id v : ids) oracle.emplace(v, oracle.size());
    const delegate_set d(ids);
    ASSERT_EQ(d.size(), ids.size());
    for (const auto& [id, slot] : oracle) {
      ASSERT_TRUE(d.contains(id)) << id;
      ASSERT_EQ(d.slot(id), slot) << id;
      ASSERT_EQ(d.id_of_slot(slot), id);
      ASSERT_EQ(d.find_slot(id), slot) << id;
      for (vertex_id delta = 1; delta <= 32; ++delta) {
        for (const vertex_id v : {id + delta, id - delta}) {
          const auto it = oracle.find(v);
          ASSERT_EQ(d.contains(v), it != oracle.end()) << v;
          ASSERT_EQ(d.find_slot(v), it == oracle.end()
                                        ? delegate_set::no_slot
                                        : it->second)
              << v;
        }
      }
    }
    for (int i = 0; i < 100000; ++i) {
      // Half near the multiples of 2^20 (same high bits, nonzero low
      // bits), half anywhere in the id space.
      const vertex_id v = (i % 2 == 0) ? (rng.below(5000) << 20) + 1 +
                                             rng.below((1u << 20) - 1)
                                       : rng();
      ASSERT_EQ(d.contains(v), oracle.count(v) != 0) << v;
    }
  }
}

TEST(Delegates, SlotOfANonDelegateThrows) {
  const delegate_set d({3, 17, 42});
  EXPECT_THROW((void)d.slot(4), ygm::error);
  EXPECT_THROW((void)delegate_set{}.slot(0), ygm::error);
  EXPECT_EQ(d.find_slot(4), delegate_set::no_slot);
  EXPECT_EQ(delegate_set{}.find_slot(0), delegate_set::no_slot);
}

TEST(Delegates, SelectionAgreesAcrossRanks) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    ygm::core::comm_world world(c, 2, ygm::routing::scheme_kind::node_local);
    const round_robin_partition part{c.size()};
    const std::uint64_t n = 40;

    // Synthetic degrees: vertex v has degree v.
    std::vector<std::uint64_t> degrees(part.local_count(c.rank(), n));
    for (std::uint64_t i = 0; i < degrees.size(); ++i) {
      degrees[i] = part.global_id(c.rank(), i);
    }
    const auto d = ygm::graph::select_delegates(world, degrees, part, 30);

    // Vertices 30..39 qualify, on every rank identically.
    ASSERT_EQ(d.size(), 10u);
    for (vertex_id v = 30; v < 40; ++v) {
      EXPECT_TRUE(d.contains(v));
      EXPECT_EQ(d.slot(v), v - 30);
    }
    EXPECT_FALSE(d.contains(29));
  });
}

TEST(Delegates, SelectionRejectsBadArguments) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    ygm::core::comm_world world(c, 1, ygm::routing::scheme_kind::no_route);
    const round_robin_partition part{c.size()};
    EXPECT_THROW(
        ygm::graph::select_delegates(world, {}, part, 0), ygm::error);
    c.barrier();
  });
}

}  // namespace
// NOTE: appended degree-model suite (kept in this file: it is part of the
// graph substrate's statistical tooling).
#include "graph/degree_model.hpp"

namespace {

using ygm::graph::rmat_degree_model;

TEST(DegreeModel, ClassSizesSumToVertexCount) {
  const rmat_degree_model m(16, 16ULL << 16, rmat_params::graph500());
  double total = 0;
  for (int k = 0; k <= 16; ++k) total += m.class_size(k);
  EXPECT_NEAR(total, static_cast<double>(1ULL << 16), 1.0);
}

TEST(DegreeModel, EndpointMassSumsToTwiceEdges) {
  const std::uint64_t edges = 16ULL << 14;
  const rmat_degree_model m(14, edges, rmat_params::graph500());
  double mass = 0;
  for (int k = 0; k <= 14; ++k) mass += m.class_size(k) * m.class_degree(k);
  EXPECT_NEAR(mass, 2.0 * static_cast<double>(edges), 0.01 * edges);
}

TEST(DegreeModel, TailCountIsMonotoneInThreshold) {
  const rmat_degree_model m(20, 16ULL << 20, rmat_params::graph500());
  double prev = m.count_degree_at_least(1);
  for (double t = 2; t < 1e7; t *= 2) {
    const double cur = m.count_degree_at_least(t);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
  EXPECT_EQ(m.count_degree_at_least(1e18), 0.0);
}

TEST(DegreeModel, PredictsEmpiricalTailWithinSmallFactor) {
  const int scale = 12;
  const std::uint64_t edges = 16ULL << scale;
  const rmat_generator g(scale, edges, rmat_params::graph500(), 21, 0, 1);
  std::vector<std::uint64_t> deg(g.num_vertices(), 0);
  g.for_each([&](const edge& e) {
    ++deg[e.src];
    ++deg[e.dst];
  });
  const rmat_degree_model m(scale, edges, rmat_params::graph500());
  for (const double t : {256.0, 1024.0}) {
    const double predicted = m.count_degree_at_least(t);
    double actual = 0;
    for (auto d : deg) {
      if (static_cast<double>(d) >= t) ++actual;
    }
    EXPECT_GT(actual, predicted / 3) << "threshold " << t;
    EXPECT_LT(actual, predicted * 3) << "threshold " << t;
  }
}

TEST(DegreeModel, UniformParametersHaveNoHeavyTail) {
  const rmat_degree_model m(20, 16ULL << 20, rmat_params::uniform());
  // Mean endpoint count is 32; a uniform graph has essentially no vertices
  // at 64x the mean.
  EXPECT_LT(m.count_degree_at_least(32.0 * 64), 1.0);
}

}  // namespace
