// Frequent k-mer counting over synthetic DNA reads — the HipMer/Meraculous
// genome-assembly workload the paper identifies as a natural YGM
// application (§II). A known motif is planted into the reads so the run
// has a verifiable answer.
//
//   ./kmer_count [--nodes 2] [--cores 4] [--reads-per-rank 400] [--k 21]
//                [--scheme NodeRemote]
#include <cstdint>
#include <iostream>
#include <string>

#include "apps/kmer_count.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 2));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const int reads = static_cast<int>(
      ygm::examples::flag_int(argc, argv, "reads-per-rank", 400));
  const int k = static_cast<int>(ygm::examples::flag_int(argc, argv, "k", 21));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::node_remote);

  // The motif every rank plants into every 8th read.
  const std::string motif = "ACGTACGTTTAGGCCAGGTAC";

  const ygm::routing::topology topo(nodes, cores);
  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);

    const auto my_reads = ygm::apps::synthetic_reads(
        c.rank(), reads, /*read_length=*/120, /*seed=*/777, motif,
        /*plant_every=*/8);

    const double t0 = c.wtime();
    const auto res = ygm::apps::count_kmers(world, my_reads, k,
                                            /*min_count=*/50);
    const double wall = c.allreduce(c.wtime() - t0, ygm::mpisim::op_max{});

    if (c.rank() == 0) {
      std::cout << "kmer_count: " << reads << " reads/rank x "
                << topo.num_ranks() << " ranks, k=" << k << ", scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "  k-mer instances " << res.total_kmers << ", distinct "
                << res.distinct_kmers << "\n";
      std::cout << "  wall time       " << wall << " s\n";
      std::cout << "  frequent k-mers (>=50 occurrences):\n";
      for (const auto& [kmer, count] : res.frequent) {
        std::cout << "    " << ygm::apps::unpack_kmer(kmer, k) << "  x"
                  << count << "\n";
      }
      const auto planted = ygm::apps::canonical_kmer(
          ygm::apps::pack_kmer(std::string_view(motif).substr(
              0, static_cast<std::size_t>(k))),
          k);
      bool found = false;
      for (const auto& [kmer, count] : res.frequent) {
        found = found || kmer == planted;
      }
      std::cout << "  planted motif found: " << (found ? "yes" : "NO")
                << "\n";
    }
  });
  return 0;
}
