#include "mpisim/comm.hpp"

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::mpisim {

comm::comm(transport::endpoint& ep,
           std::shared_ptr<const std::vector<int>> members, int rank,
           std::uint64_t ctx_p2p, std::uint64_t ctx_coll)
    : ep_(&ep),
      members_(std::move(members)),
      rank_(rank),
      ctx_p2p_(ctx_p2p),
      ctx_coll_(ctx_coll) {
  YGM_CHECK(members_ && !members_->empty(), "empty communicator group");
  YGM_CHECK(rank_ >= 0 && rank_ < size(), "rank outside communicator group");
}

double comm::wtime() const { return ep_->wtime(); }

void comm::send_bytes(int dest, int tag, std::vector<std::byte> payload) const {
  YGM_CHECK(tag >= 0 && tag <= tag_ub, "user tag out of range");
  telemetry::add(telemetry::fast_counter::mpi_sends);
  telemetry::add(telemetry::fast_counter::mpi_send_bytes, payload.size());
  ep_->post(world_rank_of(dest),
            transport::envelope{rank_, tag, ctx_p2p_, std::move(payload)});
}

std::vector<std::byte> comm::recv_bytes(int src, int tag, status* st) const {
  transport::envelope e = ep_->recv_match(src, tag, ctx_p2p_);
  if (st != nullptr) {
    *st = status{e.src, e.tag, e.payload.size()};
  }
  telemetry::add(telemetry::fast_counter::mpi_recvs);
  telemetry::add(telemetry::fast_counter::mpi_recv_bytes, e.payload.size());
  return std::move(e.payload);
}

void comm::coll_send_bytes(int dest, int tag, std::vector<std::byte> p) const {
  telemetry::add(telemetry::fast_counter::mpi_sends);
  telemetry::add(telemetry::fast_counter::mpi_send_bytes, p.size());
  ep_->post(world_rank_of(dest),
            transport::envelope{rank_, tag, ctx_coll_, std::move(p)});
}

std::vector<std::byte> comm::coll_recv_bytes(int src, int tag) const {
  transport::envelope e = ep_->recv_match(src, tag, ctx_coll_);
  telemetry::add(telemetry::fast_counter::mpi_recvs);
  telemetry::add(telemetry::fast_counter::mpi_recv_bytes, e.payload.size());
  return std::move(e.payload);
}

std::optional<transport::packet> comm::take(int tag) const {
  auto p = ep_->take(tag, ctx_p2p_);
  if (p) {
    telemetry::add(telemetry::fast_counter::mpi_recvs);
    telemetry::add(telemetry::fast_counter::mpi_recv_bytes, p->bytes().size());
  }
  return p;
}

std::optional<status> comm::iprobe(int src, int tag) const {
  return ep_->iprobe(src, tag, ctx_p2p_);
}

status comm::probe(int src, int tag) const {
  return ep_->probe(src, tag, ctx_p2p_);
}

std::size_t comm::pending_messages() const { return ep_->pending(); }

void comm::barrier() const {
  // Dissemination barrier: ceil(log2 P) rounds; in round r every rank sends
  // an empty token 2^r ahead and waits for the token from 2^r behind.
  telemetry::add(telemetry::fast_counter::mpi_collectives);
  const std::uint64_t seq = coll_seq_++;
  const int p = size();
  for (int k = 1, round = 0; k < p; k <<= 1, ++round) {
    coll_send_bytes((rank_ + k) % p, coll_tag(seq, round), {});
    (void)coll_recv_bytes((rank_ - k + p) % p, coll_tag(seq, round));
  }
}

std::uint64_t comm::derive_context(std::uint64_t seq, std::uint64_t group,
                                   std::uint64_t plane) const {
  std::uint64_t h = splitmix64(ctx_coll_ ^ splitmix64(seq + 1));
  h = splitmix64(h ^ splitmix64(group + 1));
  h = splitmix64(h ^ splitmix64(plane + 1));
  return h | (std::uint64_t{1} << 63);
}

comm comm::split(int color, int key) const {
  YGM_CHECK(color >= 0, "split color must be non-negative");
  const int p = size();
  constexpr int root = 0;

  // Root gathers (color, key) of every rank, forms the subgroups, derives
  // fresh context ids (only the root derives, so ids agree globally — they
  // travel inside the group description), and sends each member its new
  // group description.
  const auto pairs = gather(std::pair<int, int>{color, key}, root);

  const std::uint64_t seq = coll_seq_++;
  // Payload: (members as world ranks, my index, ctx_p2p, ctx_coll).
  using group_desc =
      std::tuple<std::vector<int>, int, std::uint64_t, std::uint64_t>;
  group_desc mine;

  if (rank_ == root) {
    // member ordering within a color: by (key, parent rank).
    std::vector<int> order(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) order[static_cast<std::size_t>(i)] = i;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const auto& pa = pairs[static_cast<std::size_t>(a)];
      const auto& pb = pairs[static_cast<std::size_t>(b)];
      return std::tie(pa.first, pa.second, a) <
             std::tie(pb.first, pb.second, b);
    });

    std::size_t i = 0;
    std::uint64_t group_index = 0;
    while (i < order.size()) {
      const int c = pairs[static_cast<std::size_t>(order[i])].first;
      std::vector<int> group_world;      // world ranks of the new group
      std::vector<int> group_parent;     // parent ranks (to address sends)
      while (i < order.size() &&
             pairs[static_cast<std::size_t>(order[i])].first == c) {
        group_parent.push_back(order[i]);
        group_world.push_back(world_rank_of(order[i]));
        ++i;
      }
      const std::uint64_t np2p = derive_context(seq, group_index, 0);
      const std::uint64_t ncoll = derive_context(seq, group_index, 1);
      ++group_index;
      for (std::size_t j = 0; j < group_parent.size(); ++j) {
        group_desc d{group_world, static_cast<int>(j), np2p, ncoll};
        if (group_parent[j] == root) {
          mine = std::move(d);
        } else {
          coll_send(d, group_parent[j], coll_tag(seq, 0));
        }
      }
    }
  } else {
    mine = coll_recv<group_desc>(root, coll_tag(seq, 0));
  }

  auto& [members, my_index, np2p, ncoll] = mine;
  return comm(*ep_,
              std::make_shared<const std::vector<int>>(std::move(members)),
              my_index, np2p, ncoll);
}

comm comm::dup() const {
  constexpr int root = 0;
  const std::uint64_t seq = coll_seq_++;
  std::pair<std::uint64_t, std::uint64_t> ctxs;
  if (rank_ == root) {
    ctxs = {derive_context(seq, 0, 0), derive_context(seq, 0, 1)};
    for (int dest = 0; dest < size(); ++dest) {
      if (dest != root) coll_send(ctxs, dest, coll_tag(seq, 0));
    }
  } else {
    ctxs = coll_recv<std::pair<std::uint64_t, std::uint64_t>>(
        root, coll_tag(seq, 0));
  }
  return comm(*ep_, members_, rank_, ctxs.first, ctxs.second);
}

}  // namespace ygm::mpisim
