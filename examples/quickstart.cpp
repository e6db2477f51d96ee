// Quickstart: the smallest complete YGM program.
//
// A distributed word-count: every rank holds a shard of a text corpus and
// mails each word to the rank that owns it (hash partitioning); owners count
// occurrences in their receive callback. One wait_empty() finishes the job —
// no barriers, no alltoall, no rank ever waits on ranks it doesn't talk to.
//
//   ./quickstart [--ranks 8] [--cores 4] [--scheme NLNR]
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"

namespace {

// A toy corpus, sharded round-robin by line.
const char* kCorpus[] = {
    "the quick brown fox jumps over the lazy dog",
    "you have got mail said the mailbox to the rank",
    "the rank sent the mail through the quick mailbox",
    "lazy ranks wait on barriers quick ranks use mailboxes",
    "the fox and the dog read the mail together",
    "asynchronous mail beats synchronous barriers every time",
    "got mail got mail got mail said every rank at once",
    "the mailbox routes the mail along local and remote hops",
};

}  // namespace

int main(int argc, char** argv) {
  const int ranks = static_cast<int>(
      ygm::examples::flag_int(argc, argv, "ranks", 8));
  const int cores = static_cast<int>(
      ygm::examples::flag_int(argc, argv, "cores", 4));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::nlnr);

  if (ranks % cores != 0) {
    std::cerr << "--ranks must be a multiple of --cores\n";
    return 1;
  }

  ygm::launch({.nranks = ranks}, [&](ygm::mpisim::comm& c) {
    // 1. Describe the machine: ranks laid out as (nodes x cores), with one
    //    routing scheme shared by every mailbox on this world.
    ygm::core::comm_world world(c, cores, scheme);

    // 2. Create a mailbox by declaring what happens when a message arrives.
    std::map<std::string, std::uint64_t> counts;
    ygm::core::mailbox<std::string> mb(
        world, [&](const std::string& word) { ++counts[word]; });

    // 3. Send messages whenever computation produces them.
    for (std::size_t line = 0; line < std::size(kCorpus); ++line) {
      if (static_cast<int>(line % static_cast<std::size_t>(c.size())) !=
          c.rank()) {
        continue;
      }
      std::istringstream words(kCorpus[line]);
      std::string word;
      while (words >> word) {
        const int owner = static_cast<int>(
            ygm::splitmix64(std::hash<std::string>{}(word)) %
            static_cast<std::uint64_t>(c.size()));
        mb.send(owner, word);
      }
    }

    // 4. One collective call drains everything, including the routing
    //    intermediaries between other ranks.
    mb.wait_empty();

    // Report: rank 0 gathers per-rank top words for a tidy printout.
    std::ostringstream local;
    for (const auto& [word, n] : counts) {
      if (n >= 3) local << "    " << word << ": " << n << "\n";
    }
    const auto reports = c.gather(local.str(), 0);
    if (c.rank() == 0) {
      std::cout << "quickstart: " << ranks << " ranks as " << ranks / cores
                << " nodes x " << cores << " cores, scheme "
                << ygm::routing::to_string(scheme) << "\n";
      std::cout << "words seen at least 3 times (by owning rank):\n";
      for (int r = 0; r < c.size(); ++r) {
        if (!reports[static_cast<std::size_t>(r)].empty()) {
          std::cout << "  rank " << r << ":\n"
                    << reports[static_cast<std::size_t>(r)];
        }
      }
    }
  });
  return 0;
}
