// Tests for the k-mer counting application (apps/kmer_count.hpp), the
// HipMer-style workload of paper §II.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/kmer_count.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using namespace ygm::apps;
using ygm::core::comm_world;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// ------------------------------------------------------------ bit packing

TEST(Kmer, PackUnpackRoundTrips) {
  for (const std::string s : {"A", "ACGT", "TTTTT", "GATTACA",
                              "ACGTACGTTTAGGCCAGGTAC"}) {
    EXPECT_EQ(unpack_kmer(pack_kmer(s), static_cast<int>(s.size())), s);
  }
}

TEST(Kmer, ReverseComplementIsAnInvolution) {
  ygm::xoshiro256 rng(3);
  for (int iter = 0; iter < 200; ++iter) {
    const int k = 1 + static_cast<int>(rng.below(kmer_max_k));
    const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
    const std::uint64_t kmer = rng() & mask;
    EXPECT_EQ(reverse_complement(reverse_complement(kmer, k), k), kmer);
  }
}

TEST(Kmer, ReverseComplementMatchesStringDefinition) {
  // revcomp("ACGT") = "ACGT" (palindrome); revcomp("AAC") = "GTT".
  EXPECT_EQ(unpack_kmer(reverse_complement(pack_kmer("ACGT"), 4), 4), "ACGT");
  EXPECT_EQ(unpack_kmer(reverse_complement(pack_kmer("AAC"), 3), 3), "GTT");
  EXPECT_EQ(unpack_kmer(reverse_complement(pack_kmer("GATTACA"), 7), 7),
            "TGTAATC");
}

TEST(Kmer, CanonicalFormIsStrandIndependent) {
  ygm::xoshiro256 rng(9);
  for (int iter = 0; iter < 200; ++iter) {
    const int k = 1 + static_cast<int>(rng.below(kmer_max_k));
    const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
    const std::uint64_t kmer = rng() & mask;
    EXPECT_EQ(canonical_kmer(kmer, k),
              canonical_kmer(reverse_complement(kmer, k), k));
  }
}

// --------------------------------------------------------------- counting

// Serial oracle over all ranks' reads.
std::map<std::uint64_t, std::uint64_t> oracle_counts(
    const std::vector<std::vector<std::string>>& reads_by_rank, int k) {
  std::map<std::uint64_t, std::uint64_t> counts;
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  for (const auto& reads : reads_by_rank) {
    for (const auto& read : reads) {
      std::uint64_t window = 0;
      int valid = 0;
      for (const char b : read) {
        const int code = base_code(b);
        if (code < 0) {
          valid = 0;
          window = 0;
          continue;
        }
        window = ((window << 2) | static_cast<std::uint64_t>(code)) & mask;
        if (++valid >= k) ++counts[canonical_kmer(window, k)];
      }
    }
  }
  return counts;
}

TEST(Kmer, CountsMatchSerialOracle) {
  const topology topo(2, 3);
  const int k = 11;
  std::vector<std::vector<std::string>> reads_by_rank;
  for (int r = 0; r < topo.num_ranks(); ++r) {
    reads_by_rank.push_back(synthetic_reads(r, 40, 80, 55));
  }
  const auto oracle = oracle_counts(reads_by_rank, k);
  std::uint64_t oracle_total = 0;
  for (const auto& [kmer, count] : oracle) oracle_total += count;

  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::nlnr);
    const auto res = count_kmers(
        world, reads_by_rank[static_cast<std::size_t>(c.rank())], k, 1);
    EXPECT_EQ(res.total_kmers, oracle_total);
    EXPECT_EQ(res.distinct_kmers, oracle.size());
  });
}

TEST(Kmer, PlantedMotifIsFoundFrequent) {
  const topology topo(2, 2);
  const std::string motif = "ACGTACGTTTAGGCCAGGTAC";
  const int k = 15;
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::node_remote);
    const auto reads =
        synthetic_reads(c.rank(), 100, 90, 123, motif, /*plant_every=*/4);
    const auto res = count_kmers(world, reads, k, /*min_count=*/40);
    ASSERT_FALSE(res.frequent.empty());
    const auto planted = canonical_kmer(
        pack_kmer(std::string_view(motif).substr(0, k)), k);
    bool found = false;
    for (const auto& [kmer, count] : res.frequent) {
      if (kmer == planted) {
        found = true;
        // 25 plants per rank x 4 ranks, and the window slides over the
        // whole motif; at least the exact-position copies must be counted.
        EXPECT_GE(count, 100u);
      }
    }
    EXPECT_TRUE(found);
  });
}

TEST(Kmer, JunkBasesBreakTheWindow) {
  // A read of length 2k-1 with an N in the middle yields no valid k-mer.
  const topology topo(1, 2);
  ygm::launch({.nranks = topo.num_ranks()}, [&](sim::comm& c) {
    comm_world world(c, topo, scheme_kind::no_route);
    const int k = 5;
    std::vector<std::string> reads;
    if (c.rank() == 0) {
      reads = {"ACGTNACGT"};  // windows of 5 always cross the N
    }
    const auto res = count_kmers(world, reads, k, 1);
    EXPECT_EQ(res.total_kmers, 0u);
    EXPECT_EQ(res.distinct_kmers, 0u);
  });
}

TEST(Kmer, RejectsOutOfRangeK) {
  ygm::launch({.nranks = 1}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    EXPECT_THROW(count_kmers(world, {}, 0, 1), ygm::error);
    EXPECT_THROW(count_kmers(world, {}, 32, 1), ygm::error);
  });
}

TEST(Kmer, SyntheticReadsAreDeterministicPerRank) {
  const auto a = synthetic_reads(3, 10, 50, 7);
  const auto b = synthetic_reads(3, 10, 50, 7);
  EXPECT_EQ(a, b);
  const auto other = synthetic_reads(4, 10, 50, 7);
  EXPECT_NE(a, other);
}

}  // namespace
