#include "apps/connected_components.hpp"

#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "core/mailbox.hpp"
#include "mpisim/ops.hpp"

namespace ygm::apps {

namespace {

using graph::vertex_id;

/// One direction of a stored edge after ingestion, in the four locality
/// classes delegates induce.
struct edge_store {
  // (owned u, any v): push label(u) to owner(v) each pass.
  struct plain {
    std::uint64_t lidx_u;
    vertex_id v;
  };
  // (owned u, delegate v): fold label(u) into the local replica of v.
  struct to_delegate {
    std::uint64_t lidx_u;
    std::uint64_t slot_v;
  };
  // (delegate u, owned v): fold the local replica of u into label(v).
  struct from_delegate {
    std::uint64_t slot_u;
    std::uint64_t lidx_v;
  };
  // (delegate u, delegate v): replica-to-replica, stored where generated.
  struct deleg_deleg {
    std::uint64_t slot_u;
    std::uint64_t slot_v;
  };

  std::vector<plain> plain_edges;
  std::vector<to_delegate> to_delegates;
  std::vector<from_delegate> from_delegates;
  std::vector<deleg_deleg> dd_edges;
};

/// One direction of an edge on its way to the rank that stores it, already
/// classified by the sender, so the receiver appends it with no delegate
/// lookup. The kind sits in the top two bits of `first` (vertex ids and
/// slots stay below 2^62): plain {u, v}, from-delegate {slot_u, v},
/// to-delegate {u, slot_v}. Delegate-to-delegate edges are never sent.
struct ingest_msg {
  std::uint64_t first = 0;
  std::uint64_t second = 0;
};

constexpr int ingest_kind_shift = 62;
constexpr std::uint64_t ingest_id_mask =
    (std::uint64_t{1} << ingest_kind_shift) - 1;
constexpr std::uint64_t ingest_plain = 0;
constexpr std::uint64_t ingest_from_delegate = 1;
constexpr std::uint64_t ingest_to_delegate = 2;

constexpr std::uint64_t ingest_first(std::uint64_t kind, std::uint64_t x) {
  return (kind << ingest_kind_shift) | x;
}

struct label_msg {
  vertex_id v = 0;
  vertex_id label = 0;
};

struct delegate_msg {
  std::uint64_t slot = 0;
  vertex_id label = 0;
};

}  // namespace

cc_result connected_components(core::comm_world& world,
                               const std::vector<graph::edge>& local_edges,
                               vertex_id num_vertices,
                               const graph::delegate_set& delegates,
                               std::size_t mailbox_capacity) {
  YGM_CHECK(num_vertices <= (std::uint64_t{1} << ingest_kind_shift),
            "connected_components supports at most 2^62 vertices");
  const graph::round_robin_partition part{world.size()};
  cc_result out;

  // ------------------------------------------------------------- state
  const std::uint64_t nlocal = part.local_count(world.rank(), num_vertices);
  out.local_labels.resize(nlocal);
  for (std::uint64_t i = 0; i < nlocal; ++i) {
    out.local_labels[i] = part.global_id(world.rank(), i);
  }
  out.delegate_labels = delegates.ids();  // replica label = own id initially

  auto& labels = out.local_labels;
  auto& dlabels = out.delegate_labels;

  // ---------------------------------------------------------- ingestion
  edge_store store;
  {
    const int rank = world.rank();
    core::mailbox<ingest_msg> ingest(
        world,
        [&](const ingest_msg& m) {
          const std::uint64_t kind = m.first >> ingest_kind_shift;
          const std::uint64_t x = m.first & ingest_id_mask;
          if (kind == ingest_plain) {
            YGM_ASSERT(part.owner(x) == rank);
            store.plain_edges.push_back({part.local_index(x), m.second});
          } else if (kind == ingest_from_delegate) {
            YGM_ASSERT(x < delegates.size());
            YGM_ASSERT(part.owner(m.second) == rank);
            store.from_delegates.push_back({x, part.local_index(m.second)});
          } else {
            YGM_ASSERT(kind == ingest_to_delegate);
            YGM_ASSERT(part.owner(x) == rank);
            YGM_ASSERT(m.second < delegates.size());
            store.to_delegates.push_back({part.local_index(x), m.second});
          }
        },
        mailbox_capacity);
    const auto route = [&](vertex_id u, vertex_id v) {
      YGM_CHECK(u < num_vertices && v < num_vertices,
                "edge endpoint out of range");
      constexpr std::uint64_t none = graph::delegate_set::no_slot;
      const std::uint64_t su = delegates.find_slot(u);
      const std::uint64_t sv = delegates.find_slot(v);
      // Delegate edges are colocated with the non-delegate endpoint;
      // replica state is everywhere, so a delegate-delegate edge is stored
      // where it was generated.
      if (su != none && sv != none) {
        store.dd_edges.push_back({su, sv});
      } else if (su != none) {
        ingest.send(part.owner(v),
                    {ingest_first(ingest_from_delegate, su), v});
      } else if (sv != none) {
        ingest.send(part.owner(u),
                    {ingest_first(ingest_to_delegate, u), sv});
      } else {
        ingest.send(part.owner(u), {ingest_first(ingest_plain, u), v});
      }
    };
    for (const auto& e : local_edges) {
      route(e.src, e.dst);
      route(e.dst, e.src);
    }
    ingest.wait_empty();
  }

  // ----------------------------------------------------------- iteration
  bool changed = false;
  std::vector<std::uint8_t> slot_dirty(delegates.size(), 0);
  std::vector<std::uint64_t> dirty_slots;

  const auto improve_delegate = [&](std::uint64_t slot, vertex_id label) {
    if (label < dlabels[slot]) {
      dlabels[slot] = label;
      changed = true;
      if (!slot_dirty[slot]) {
        slot_dirty[slot] = 1;
        dirty_slots.push_back(slot);
      }
    }
  };

  core::mailbox<label_msg> label_mb(
      world,
      [&](const label_msg& m) {
        const std::uint64_t i = part.local_index(m.v);
        if (m.label < labels[i]) {
          labels[i] = m.label;
          changed = true;
        }
      },
      mailbox_capacity);

  // Replica synchronization rides asynchronous broadcasts. A received
  // update is applied but never re-broadcast (the origin already reached
  // every rank).
  core::mailbox<delegate_msg> sync_mb(
      world,
      [&](const delegate_msg& m) {
        if (m.label < dlabels[m.slot]) {
          dlabels[m.slot] = m.label;
          changed = true;
        }
      },
      mailbox_capacity);

  for (;;) {
    ++out.passes;
    changed = false;

    for (const auto& e : store.plain_edges) {
      label_mb.send(part.owner(e.v), label_msg{e.v, labels[e.lidx_u]});
    }
    for (const auto& e : store.to_delegates) {
      improve_delegate(e.slot_v, labels[e.lidx_u]);
    }
    for (const auto& e : store.from_delegates) {
      if (dlabels[e.slot_u] < labels[e.lidx_v]) {
        labels[e.lidx_v] = dlabels[e.slot_u];
        changed = true;
      }
    }
    for (const auto& e : store.dd_edges) {
      improve_delegate(e.slot_v, dlabels[e.slot_u]);
    }
    label_mb.wait_empty();

    // Lazy replica synchronization (paper §V-B1): broadcast only the slots
    // this rank improved since the last sync.
    for (const std::uint64_t slot : dirty_slots) {
      sync_mb.send_bcast(delegate_msg{slot, dlabels[slot]});
      ++out.broadcasts;
      slot_dirty[slot] = 0;
    }
    dirty_slots.clear();
    sync_mb.wait_empty();

    const bool global_changed =
        world.mpi().allreduce(changed, mpisim::op_lor{});
    if (!global_changed) break;
  }

  // Mirror converged replica labels into the owners' label array so the
  // output is a complete labelling of local vertices.
  for (std::uint64_t slot = 0; slot < delegates.size(); ++slot) {
    const vertex_id d = delegates.id_of_slot(slot);
    if (part.owner(d) == world.rank()) {
      labels[part.local_index(d)] = dlabels[slot];
    }
  }

  out.stats = label_mb.stats();
  out.stats += sync_mb.stats();
  return out;
}

std::vector<vertex_id> connected_components_reference(
    vertex_id num_vertices, const std::vector<graph::edge>& edges) {
  std::vector<vertex_id> parent(num_vertices);
  std::iota(parent.begin(), parent.end(), vertex_id{0});

  const auto find = [&](vertex_id v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const auto& e : edges) {
    const vertex_id a = find(e.src);
    const vertex_id b = find(e.dst);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Two-phase flattening leaves every root as the minimum of its component
  // (unions always point larger roots at smaller ones).
  std::vector<vertex_id> labels(num_vertices);
  for (vertex_id v = 0; v < num_vertices; ++v) labels[v] = find(v);
  return labels;
}

}  // namespace ygm::apps
