// Distributed containers showcase: stream synthetic documents through a
// counting_set (global word frequencies), keep per-word metadata in a
// distributed map, and collect outliers in a bag — three containers
// sharing one comm_world and one routing scheme, all riding YGM mailboxes.
//
//   ./word_frequency [--nodes 2] [--cores 4] [--docs-per-rank 2000]
//                    [--scheme NodeRemote]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "containers/bag.hpp"
#include "containers/counting_set.hpp"
#include "containers/map.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"

namespace {

// A Zipf-ish synthetic vocabulary: word w is drawn with weight ~ 1/(w+1).
std::string sample_word(ygm::xoshiro256& rng) {
  static const char* kStems[] = {"mail",  "rank",   "node",  "core",
                                 "route", "packet", "async", "graph",
                                 "sparse", "vector"};
  const double u = rng.uniform();
  std::size_t w = 0;
  double mass = 0;
  constexpr double kTotal = 2.9289682539682538;  // H_10
  for (; w < 10; ++w) {
    mass += 1.0 / (static_cast<double>(w) + 1.0);
    if (u < mass / kTotal) break;
  }
  if (w >= 10) w = 9;
  return kStems[w];
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 2));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const int docs = static_cast<int>(
      ygm::examples::flag_int(argc, argv, "docs-per-rank", 2000));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::node_remote);

  const ygm::routing::topology topo(nodes, cores);
  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);

    ygm::container::counting_set<std::string> frequencies(world);
    ygm::container::map<std::string, std::uint64_t> first_seen(
        world,
        // Reducer keeps the earliest sighting.
        [](const std::uint64_t& a, const std::uint64_t& b) {
          return a < b ? a : b;
        });
    ygm::container::bag<std::string> rare_words(world);

    ygm::xoshiro256 rng(505 + static_cast<std::uint64_t>(c.rank()));
    for (int d = 0; d < docs; ++d) {
      const int words = 3 + static_cast<int>(rng.below(6));
      for (int i = 0; i < words; ++i) {
        const auto word = sample_word(rng);
        frequencies.async_insert(word);
        first_seen.async_reduce(
            word, static_cast<std::uint64_t>(c.rank()) * 1000000 +
                      static_cast<std::uint64_t>(d));
      }
    }
    frequencies.wait_empty();
    first_seen.wait_empty();

    // Second phase: file locally owned words below a global threshold into
    // the bag. global_total() is collective — compute it once, outside the
    // loop.
    const std::uint64_t rare_threshold = frequencies.global_total() / 100;
    for (const auto& [word, count] : frequencies.local_counts()) {
      if (count < rare_threshold) {
        rare_words.async_insert(word);
      }
    }
    rare_words.wait_empty();

    // All of these are collectives — compute them on every rank, then only
    // rank 0 prints.
    const auto top = frequencies.top_k(5);
    const auto total_words = frequencies.global_total();
    const auto distinct_words = frequencies.global_unique();
    const auto rare_count = rare_words.global_size();
    const auto map_size = first_seen.global_size();
    if (c.rank() == 0) {
      std::cout << "word_frequency: " << docs << " docs/rank on " << nodes
                << "x" << cores << " ranks, scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "  total words " << total_words << ", distinct "
                << distinct_words << "\n";
      std::cout << "  top 5:";
      for (const auto& [w, n] : top) std::cout << ' ' << w << '(' << n << ')';
      std::cout << "\n  rare words " << rare_count << "\n";
      std::cout << "  map size    " << map_size << "\n";
    }
  });
  return 0;
}
