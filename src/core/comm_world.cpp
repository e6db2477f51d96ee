#include "core/comm_world.hpp"

#include <cstdlib>

#include "common/assert.hpp"
#include "core/launch.hpp"
#include "core/progress.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::core {

namespace {

// Mailbox tag blocks start high enough that applications can use low tags
// for their own direct mpisim traffic on the same communicator.
constexpr int kTagBlockBase = 1 << 20;

routing::topology derive_topology(const mpisim::comm& c, int cores_per_node) {
  YGM_CHECK(cores_per_node >= 1, "cores_per_node must be >= 1");
  YGM_CHECK(c.size() % cores_per_node == 0,
            "communicator size must be a multiple of cores_per_node");
  return routing::topology(c.size() / cores_per_node, cores_per_node);
}

// run_options::credit_bytes > YGM_CREDIT_BYTES > 1 MiB (the launch.hpp
// precedence contract); 0 disables credit gating.
std::size_t resolve_credit_bytes() {
  if (const auto& o = ygm::detail::launch_credit_bytes(); o.has_value()) {
    return *o;
  }
  const char* v = std::getenv("YGM_CREDIT_BYTES");
  if (v != nullptr && *v != '\0') {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<std::size_t>(n);
  }
  return std::size_t{1} << 20;  // 1 MiB
}

}  // namespace

comm_world::comm_world(mpisim::comm& c, routing::topology topo,
                       routing::scheme_kind scheme)
    : comm_(&c), router_(scheme, topo), next_tag_(kTagBlockBase) {
  YGM_CHECK(topo.num_ranks() == c.size(),
            "topology does not cover the communicator");
  routes_ = router_.routes_from(c.rank());
  // A timed launch (run_options::virtual_network) makes every world built
  // during the run timed, identically on all ranks — the same contract
  // attach_virtual_network places on callers.
  if (const auto& np = ygm::detail::launch_virtual_network(); np.has_value()) {
    vnet_ = np;
  }
  credit_bytes_ = resolve_credit_bytes();
  // The progress station exists in every mode (the ygm::progress facade
  // drives it from the rank thread in polling mode); it is handed to the
  // engine only when ygm::launch installed one in this process.
  station_ = std::make_shared<progress::station>(progress::current(),
                                                 &c.get_endpoint());
  if (progress::engine* eng = progress::current()) eng->adopt(station_);
  // Stamp the world's shape and routing scheme onto rank 0's timeline, so
  // offline analyzers (tools/ygm_trace) can reconstruct expected hop counts
  // from the trace file alone.
  if (c.rank() == 0 && telemetry::tls() != nullptr) {
    telemetry::instant_marker cfg("world.config", "nodes", "cores");
    cfg.record(static_cast<std::uint64_t>(topo.nodes),
               static_cast<std::uint64_t>(topo.cores));
    telemetry::instant("world.scheme", "scheme",
                       static_cast<std::uint64_t>(scheme));
  }
}

comm_world::comm_world(mpisim::comm& c, int cores_per_node,
                       routing::scheme_kind scheme)
    : comm_world(c, derive_topology(c, cores_per_node), scheme) {}

comm_world::~comm_world() {
  // After this returns the engine can never touch this world (or the
  // endpoint underneath it) again; mailboxes have already unregistered
  // their pumps in their own destructors.
  station_->shutdown();
}

int comm_world::reserve_tag_block(int count) {
  YGM_CHECK(count > 0, "tag block must be non-empty");
  const int base = next_tag_;
  YGM_CHECK(base + count <= mpisim::tag_ub,
            "tag space exhausted: too many mailboxes on one comm_world");
  next_tag_ += count;
  return base;
}

}  // namespace ygm::core
