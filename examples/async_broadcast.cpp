// Asynchronous broadcast demo: a replicated top-k tracker.
//
// Every rank streams random samples; whenever a sample makes it into the
// rank's view of the global top-k, the candidate is broadcast so all
// replicas converge — the paper's "lazy synchronization of replicated
// state" pattern (§I, §III-C) in its simplest form. Broadcast traffic rides
// the routing scheme's tree, so NodeRemote/NLNR spend only N-1 remote
// messages per broadcast where NodeLocal spends C*(N-1).
//
//   ./async_broadcast [--nodes 4] [--cores 4] [--k 8] [--samples 10000]
//                     [--scheme NodeRemote]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/ygm.hpp"
#include "example_util.hpp"

namespace {

/// A bounded set of the k largest values seen.
class top_k {
 public:
  explicit top_k(std::size_t k) : k_(k) {}

  /// True if v entered the set (i.e. peers should hear about it).
  bool offer(std::uint64_t v) {
    if (values_.size() < k_) {
      return values_.insert(v).second;
    }
    if (v <= *values_.begin() || values_.count(v) != 0) return false;
    values_.erase(values_.begin());
    values_.insert(v);
    return true;
  }

  const std::set<std::uint64_t>& values() const noexcept { return values_; }

 private:
  std::size_t k_;
  std::set<std::uint64_t> values_;
};

}  // namespace

int main(int argc, char** argv) {
  const int nodes =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "nodes", 4));
  const int cores =
      static_cast<int>(ygm::examples::flag_int(argc, argv, "cores", 4));
  const std::size_t k = static_cast<std::size_t>(
      ygm::examples::flag_int(argc, argv, "k", 8));
  const std::uint64_t samples = static_cast<std::uint64_t>(
      ygm::examples::flag_int(argc, argv, "samples", 10000));
  const auto scheme = ygm::examples::flag_scheme(
      argc, argv, ygm::routing::scheme_kind::node_remote);

  const ygm::routing::topology topo(nodes, cores);

  ygm::launch({.nranks = topo.num_ranks()}, [&](ygm::mpisim::comm& c) {
    ygm::core::comm_world world(c, topo, scheme);

    top_k best(k);
    ygm::core::mailbox<std::uint64_t>* mbp = nullptr;
    ygm::core::mailbox<std::uint64_t> mb(
        world,
        [&](const std::uint64_t& v) {
          // A candidate can cascade: if it improves this replica too, no
          // further broadcast is needed (the origin reached everyone), so
          // just fold it in.
          best.offer(v);
        });
    mbp = &mb;
    (void)mbp;

    ygm::xoshiro256 rng(2026 + static_cast<std::uint64_t>(c.rank()));
    std::uint64_t broadcasts = 0;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const std::uint64_t sample = rng();
      if (best.offer(sample)) {
        mb.send_bcast(sample);
        ++broadcasts;
      }
    }
    mb.wait_empty();

    // Verify convergence: every replica must hold the same set.
    std::vector<std::uint64_t> mine(best.values().begin(),
                                    best.values().end());
    auto reference = mine;
    c.bcast(reference, 0);
    const bool agree = reference == mine;
    const auto all_agree =
        c.allreduce(static_cast<int>(agree), ygm::mpisim::op_land{});
    const auto total_bcasts = c.allreduce(broadcasts, ygm::mpisim::op_sum{});
    const auto remote_bytes =
        c.allreduce(mb.stats().remote_bytes, ygm::mpisim::op_sum{});

    if (c.rank() == 0) {
      std::cout << "async_broadcast: top-" << k << " over "
                << samples * static_cast<std::uint64_t>(c.size())
                << " samples on " << nodes << "x" << cores
                << " ranks, scheme " << ygm::routing::to_string(scheme)
                << "\n";
      std::cout << "  broadcasts issued " << total_bcasts << "\n";
      std::cout << "  wire traffic      "
                << ygm::format_bytes(static_cast<double>(remote_bytes))
                << " (scheme tree: "
                << world.route().bcast_remote_messages()
                << " remote msgs per bcast)\n";
      std::cout << "  replicas agree    " << (all_agree ? "yes" : "NO")
                << "\n";
      std::cout << "  global top-" << k << ":";
      for (auto v : mine) std::cout << ' ' << (v >> 48);
      std::cout << " (x 2^48)\n";
    }
  });
  return 0;
}
