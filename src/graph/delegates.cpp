#include "graph/delegates.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ygm::graph {

delegate_set::delegate_set(std::vector<vertex_id> sorted_ids)
    : ids_(std::move(sorted_ids)) {
  YGM_CHECK(std::is_sorted(ids_.begin(), ids_.end()),
            "delegate ids must be sorted for cross-rank agreement");
  std::size_t n = 2;
  while (n < 2 * ids_.size()) {
    n *= 2;
    --shift_;
  }
  buckets_.assign(n, bucket{});
  for (std::uint64_t i = 0; i < ids_.size(); ++i) {
    YGM_CHECK(i == 0 || ids_[i] != ids_[i - 1], "duplicate delegate id");
    std::size_t b = home(ids_[i]);
    while (buckets_[b].slot != no_slot) b = (b + 1) & (n - 1);
    buckets_[b] = {ids_[i], i};
  }
}

delegate_set select_delegates(core::comm_world& world,
                              const std::vector<std::uint64_t>& local_degrees,
                              const round_robin_partition& part,
                              std::uint64_t threshold) {
  YGM_CHECK(threshold > 0, "delegate threshold must be positive");
  YGM_CHECK(part.num_ranks() == world.size(),
            "partition does not match the world");

  std::vector<vertex_id> mine;
  for (std::uint64_t i = 0; i < local_degrees.size(); ++i) {
    if (local_degrees[i] >= threshold) {
      mine.push_back(part.global_id(world.rank(), i));
    }
  }

  const auto all = world.mpi().allgather(mine);
  std::vector<vertex_id> ids;
  for (const auto& v : all) ids.insert(ids.end(), v.begin(), v.end());
  std::sort(ids.begin(), ids.end());
  return delegate_set(std::move(ids));
}

double expected_max_degree(int scale, std::uint64_t num_edges,
                           const rmat_params& params) {
  return static_cast<double>(num_edges) *
         std::pow(params.a + params.b, scale);
}

}  // namespace ygm::graph
