// comm_world: the YGM view of the machine.
//
// Binds together the transport (an mpisim communicator), the (node, core)
// topology the ranks are laid out on, and the routing scheme every mailbox
// on this world uses. Also hands out disjoint tag blocks so several
// mailboxes (and their termination detectors) can share one communicator
// without interfering — YGM applications routinely layer multiple mailboxes
// (e.g. connected components uses one for labels and broadcasts).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/assert.hpp"
#include "mpisim/comm.hpp"
#include "net/params.hpp"
#include "routing/router.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::progress {
class station;
}

namespace ygm::core {

class comm_world {
 public:
  /// The communicator's ranks must exactly cover the topology, laid out
  /// node-major (rank = node*C + core), matching typical MPI blocked
  /// placement of consecutive ranks on one physical node.
  comm_world(mpisim::comm& c, routing::topology topo,
             routing::scheme_kind scheme);

  /// Convenience: derive the topology from the communicator size and a
  /// cores-per-node count (size must divide evenly).
  comm_world(mpisim::comm& c, int cores_per_node,
             routing::scheme_kind scheme);

  ~comm_world();

  comm_world(const comm_world&) = delete;
  comm_world& operator=(const comm_world&) = delete;

  int rank() const noexcept { return comm_->rank(); }
  int size() const noexcept { return comm_->size(); }
  int node() const noexcept { return topo().node_of(rank()); }
  int core() const noexcept { return topo().core_of(rank()); }

  const routing::topology& topo() const noexcept { return router_.topo(); }
  const routing::router& route() const noexcept { return router_; }
  mpisim::comm& mpi() const noexcept { return *comm_; }

  // ---------------------------------------------------------- route table
  //
  // This rank's answers from the routing scheme, built once at construction
  // (router::routes_from), so the mailbox's per-record lookups are loads.
  // Both count the same telemetry the router's own calls count.

  /// route().next_hop(rank(), dst). Precondition: dst != rank() (checked,
  /// like the range: forwarded addresses come off the wire).
  int next_hop(int dst) const {
    const auto d = static_cast<std::size_t>(dst);
    YGM_ASSERT(d < routes_.next_hop.size());
    const int nh = routes_.next_hop[d];
    YGM_ASSERT(nh >= 0);  // -1 marks this rank
    if (telemetry::recorder* rec = telemetry::tls()) {
      rec->fast_add(telemetry::fast_counter::route_next_hop, 1);
      rec->fast_add_scheme_hop(static_cast<unsigned>(router_.kind()));
    }
    return nh;
  }

  /// route().bcast_next_hops(rank(), origin), as a span into the table
  /// (valid for the world's lifetime — reading it allocates nothing).
  std::span<const int> bcast_next_hops(int origin) const {
    const auto o = static_cast<std::size_t>(origin);
    YGM_ASSERT(o + 1 < routes_.bcast_begin.size());
    const auto begin = static_cast<std::size_t>(routes_.bcast_begin[o]);
    const auto end = static_cast<std::size_t>(routes_.bcast_begin[o + 1]);
    telemetry::add(telemetry::fast_counter::route_bcast_fanout, end - begin);
    return {routes_.bcast_hops.data() + begin, end - begin};
  }

  /// Reserve a block of point-to-point tags (for a mailbox's data plane and
  /// termination plane). Blocks are disjoint per call, but identical across
  /// ranks only if every rank constructs its mailboxes in the same order —
  /// the same contract MPI communicators place on collective calls.
  int reserve_tag_block(int count);

  // Passthroughs used by applications between communication phases.
  void barrier() const { comm_->barrier(); }
  double wtime() const { return comm_->wtime(); }

  // ------------------------------------------------------ progress control
  //
  // The ygm::progress facade (core/progress.hpp) is the supported surface:
  // wrap compute regions in ygm::progress::guard, call
  // ygm::progress::drain/quiesce instead of reaching for raw mailbox
  // poll_incoming()/flush()/wait_empty() passthroughs. The station exists in
  // every mode; it is registered with a progress engine only when
  // ygm::launch installed one in this process (progress_mode = engine).

  /// This rank's progress station (always present; mailboxes register their
  /// pumps here, the engine and the facade drive them).
  progress::station& progress_station() const noexcept { return *station_; }

  // --------------------------------------------------- debug / chaos knobs

  /// When set, mailboxes round-trip rank-local deliveries through ser::
  /// instead of handing the object straight to the callback. Self-sends
  /// normally bypass serialization entirely, so an asymmetric serialize()
  /// only misbehaves once a message happens to cross ranks — this knob makes
  /// single-rank runs and chaos trials exercise the same code path as remote
  /// traffic.
  void set_serialize_self_sends(bool on) noexcept {
    serialize_self_sends_ = on;
  }
  bool serialize_self_sends() const noexcept { return serialize_self_sends_; }

  // ------------------------------------------------------- flow control

  /// Per-destination credit budget in bytes for mailboxes built on this
  /// world (docs/BACKPRESSURE.md). Resolved at construction as
  /// run_options::credit_bytes > YGM_CREDIT_BYTES > 1 MiB; 0 disables
  /// credit gating. Override BEFORE building mailboxes (they snapshot it,
  /// clamped to at least twice their flush capacity).
  std::size_t credit_bytes() const noexcept { return credit_bytes_; }
  void set_credit_bytes(std::size_t bytes) noexcept { credit_bytes_ = bytes; }

  // -------------------------------------------------------- virtual time
  //
  // Optional conservative virtual-time simulation: when a network model is
  // attached (identically on every rank, BEFORE any mailbox is built), the
  // mailboxes charge this rank's virtual clock for every transfer and
  // message-handling event, and packet arrival times ride the wire — so an
  // executed run also yields the time the SAME run would have taken on the
  // modeled cluster, with true causal critical paths (unlike the analytic
  // evaluator's symmetric average). Clocks only ever advance, so no
  // rollback is needed.

  /// Attach the model (collective by convention; same params everywhere).
  void attach_virtual_network(const net::network_params& np) { vnet_ = np; }

  bool timed() const noexcept { return vnet_.has_value(); }
  const net::network_params& virtual_network() const { return *vnet_; }

  /// This rank's virtual clock (seconds on the modeled machine).
  double virtual_now() const noexcept { return vclock_; }

  /// Advance the clock to an event time (packet arrival).
  void virtual_advance_to(double t) noexcept {
    vclock_ = std::max(vclock_, t);
  }

  /// Charge local CPU handling for n message events.
  void virtual_charge_events(std::uint64_t n) noexcept {
    if (vnet_) vclock_ += static_cast<double>(n) * vnet_->cpu_s_per_msg;
  }

  /// Charge one outgoing packet; returns its arrival time at the receiver.
  double virtual_charge_packet(std::size_t bytes, bool remote) noexcept {
    if (!vnet_) return 0;
    const auto& link = remote ? vnet_->remote : vnet_->local;
    vclock_ += link.transfer_time(static_cast<double>(bytes));
    return vclock_;
  }

  /// Collective: the simulated completion time of the run so far (max over
  /// ranks).
  double virtual_elapsed() const {
    return comm_->allreduce(vclock_, mpisim::op_max{});
  }

 private:
  mpisim::comm* comm_;
  routing::router router_;
  routing::rank_routes routes_;
  std::shared_ptr<progress::station> station_;
  int next_tag_;
  bool serialize_self_sends_ = false;
  std::size_t credit_bytes_ = 0;  // resolved in the constructor
  std::optional<net::network_params> vnet_;
  double vclock_ = 0;
};

}  // namespace ygm::core
