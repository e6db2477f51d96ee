// The communicator: point-to-point messaging, probing, nonblocking
// operations, communicator splitting, and tree-based collectives.
//
// One comm object per rank per logical communicator. Typed send/recv
// serialize through ygm::ser, so any serializable type — including
// variable-length STL containers — can cross rank boundaries, mirroring
// MPI + cereal in the paper.
//
// comm is backend-agnostic: all traffic flows through a
// transport::endpoint (inproc threads, or one process per rank over sockets
// or shared memory), and every collective here is built from the
// endpoint's point-to-point messages on the communicator's collective
// context.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/buffer_pool.hpp"  // sanctioned upward include (src/CMakeLists.txt)
#include "mpisim/ops.hpp"
#include "mpisim/request.hpp"
#include "mpisim/types.hpp"
#include "ser/serialize.hpp"
#include "transport/endpoint.hpp"

namespace ygm::mpisim {

class comm {
 public:
  /// Constructed by ygm::launch (world communicator) or by split()/dup().
  comm(transport::endpoint& ep,
       std::shared_ptr<const std::vector<int>> members, int rank,
       std::uint64_t ctx_p2p, std::uint64_t ctx_coll);

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return static_cast<int>(members_->size()); }

  /// Seconds since world creation, like MPI_Wtime.
  double wtime() const;

  // ------------------------------------------------------ point-to-point

  /// Eager buffered send of raw bytes; never blocks.
  void send_bytes(int dest, int tag, std::vector<std::byte> payload) const;

  /// Blocking matched receive of raw bytes.
  std::vector<std::byte> recv_bytes(int src, int tag,
                                    status* st = nullptr) const;

  /// Typed send: v is serialized via ygm::ser into a pooled payload buffer
  /// (the receiver's recv() releases it, so typed traffic recycles capacity
  /// exactly like mailbox packets).
  template <class T>
  void send(const T& v, int dest, int tag) const {
    auto buf = core::buffer_pool::local().acquire();
    ser::append_bytes(v, buf);
    send_bytes(dest, tag, std::move(buf));
  }

  /// Typed blocking receive.
  template <class T>
  T recv(int src, int tag, status* st = nullptr) const {
    auto buf = recv_bytes(src, tag, st);
    T v = ser::from_bytes<T>({buf.data(), buf.size()});
    core::buffer_pool::local().release(std::move(buf));
    return v;
  }

  /// Nonblocking send. Completes immediately (sends are eager) but returns
  /// a request for MPI-style call sites.
  template <class T>
  request isend(const T& v, int dest, int tag) const {
    send(v, dest, tag);
    return request{};
  }

  /// Nonblocking receive into out; out must outlive the request.
  template <class T>
  request irecv(T& out, int src, int tag) const;

  /// Nonblocking probe, like MPI_Iprobe.
  std::optional<status> iprobe(int src, int tag) const;

  /// Nonblocking receive of the first visible message on `tag` from any
  /// source: the iprobe and its receive in one step
  /// (transport::endpoint::take). The packet owns its payload or reads a
  /// frame the transport lends in place; it counts as one receive.
  std::optional<transport::packet> take(int tag) const;

  /// Blocking probe, like MPI_Probe.
  status probe(int src, int tag) const;

  /// Number of queued unreceived messages for this rank (all contexts;
  /// diagnostic aid, no MPI analogue).
  std::size_t pending_messages() const;

  // ---------------------------------------------------------- collectives
  //
  // All collectives must be invoked in the same order by every rank of the
  // communicator (the usual MPI contract). They run on a dedicated context
  // so they never interfere with user point-to-point traffic.

  /// Dissemination barrier, O(log P) rounds.
  void barrier() const;

  /// Binomial-tree broadcast of a serializable value.
  template <class T>
  void bcast(T& v, int root) const;

  /// Binomial-tree reduction to root; result meaningful only at root.
  template <class T, class Op>
  T reduce(const T& v, Op op, int root) const;

  /// Reduce-to-zero plus broadcast.
  template <class T, class Op>
  T allreduce(const T& v, Op op) const;

  /// Elementwise allreduce over equal-length vectors.
  template <class T, class Op>
  std::vector<T> allreduce_vec(const std::vector<T>& v, Op op) const;

  /// Gather one value per rank to root (result ordered by rank, only at
  /// root; other ranks get an empty vector).
  template <class T>
  std::vector<T> gather(const T& v, int root) const;

  /// Gather plus broadcast.
  template <class T>
  std::vector<T> allgather(const T& v) const;

  /// Root scatters bufs[i] to rank i; returns this rank's piece.
  template <class T>
  T scatter(const std::vector<T>& bufs, int root) const;

  /// Inclusive prefix reduction: rank r gets op(v_0, ..., v_r), like
  /// MPI_Scan.
  template <class T, class Op>
  T scan(const T& v, Op op) const;

  /// Exclusive prefix reduction: rank 0 gets `identity`, rank r gets
  /// op(v_0, ..., v_{r-1}), like MPI_Exscan (with a defined rank-0 value).
  template <class T, class Op>
  T exscan(const T& v, Op op, T identity = T{}) const;

  /// Personalized all-to-all with per-destination vectors, like
  /// MPI_Alltoallv. This is the *synchronous* collective the paper contrasts
  /// YGM's asynchronous exchanges against.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& sendbufs) const;

  // -------------------------------------------------- communicator algebra

  /// Partition ranks by color; order within each new comm follows
  /// (key, parent rank), like MPI_Comm_split. Colors must be >= 0.
  comm split(int color, int key) const;

  /// A new communicator with the same group, like MPI_Comm_dup.
  comm dup() const;

  /// The underlying transport endpoint (used by runtime glue and tests).
  transport::endpoint& get_endpoint() const noexcept { return *ep_; }

 private:
  // Tag for round `round` of the `coll_seq_`-th collective on this comm.
  int coll_tag(std::uint64_t seq, int round) const {
    return static_cast<int>(((seq << 6) | static_cast<unsigned>(round)) &
                            static_cast<unsigned>(tag_ub));
  }

  // Context id for a communicator derived from this one: a splitmix64 chain
  // over (parent collective context, collective seq, subgroup index, plane)
  // with the high bit forced so derived ids can never collide with the
  // world's fixed low-numbered contexts. Root computes these and *ships*
  // them inside the group description, so cross-rank agreement comes from
  // the message, not from every rank re-deriving; derivation only has to be
  // unique across live communicators, which 63 hashed bits give w.h.p.
  // (The old implementation bumped a per-world counter, which cannot work
  // once ranks are separate processes.)
  std::uint64_t derive_context(std::uint64_t seq, std::uint64_t group,
                               std::uint64_t plane) const;

  void coll_send_bytes(int dest, int tag, std::vector<std::byte> p) const;
  std::vector<std::byte> coll_recv_bytes(int src, int tag) const;

  template <class T>
  void coll_send(const T& v, int dest, int tag) const {
    auto buf = core::buffer_pool::local().acquire();
    ser::append_bytes(v, buf);
    coll_send_bytes(dest, tag, std::move(buf));
  }
  template <class T>
  T coll_recv(int src, int tag) const {
    auto buf = coll_recv_bytes(src, tag);
    T v = ser::from_bytes<T>({buf.data(), buf.size()});
    core::buffer_pool::local().release(std::move(buf));
    return v;
  }

  int world_rank_of(int group_rank) const {
    YGM_ASSERT(group_rank >= 0 && group_rank < size());
    return (*members_)[static_cast<std::size_t>(group_rank)];
  }

  transport::endpoint* ep_;
  std::shared_ptr<const std::vector<int>> members_;  // group -> world rank
  int rank_;                                         // my group rank
  std::uint64_t ctx_p2p_;
  std::uint64_t ctx_coll_;
  mutable std::uint64_t coll_seq_ = 0;
};

// ------------------------------------------------------------------------
// Template member definitions.
// ------------------------------------------------------------------------

template <class T>
request comm::irecv(T& out, int src, int tag) const {
  transport::endpoint* ep = ep_;
  const std::uint64_t ctx = ctx_p2p_;
  return request{[ep, &out, src, tag, ctx](bool block) {
    if (block) {
      transport::envelope e = ep->recv_match(src, tag, ctx);
      out = ser::from_bytes<T>(e.payload);
      return true;
    }
    auto e = ep->try_recv_match(src, tag, ctx);
    if (!e) return false;
    out = ser::from_bytes<T>(e->payload);
    return true;
  }};
}

template <class T>
void comm::bcast(T& v, int root) const {
  const int p = size();
  YGM_ASSERT(root >= 0 && root < p);
  const std::uint64_t seq = coll_seq_++;
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int src = (vrank - mask + root) % p;
      v = coll_recv<T>(src, coll_tag(seq, 0));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int dest = (vrank + mask + root) % p;
      coll_send(v, dest, coll_tag(seq, 0));
    }
    mask >>= 1;
  }
}

template <class T, class Op>
T comm::reduce(const T& v, Op op, int root) const {
  const int p = size();
  YGM_ASSERT(root >= 0 && root < p);
  const std::uint64_t seq = coll_seq_++;
  const int vrank = (rank_ - root + p) % p;
  T acc = v;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int peer = vrank | mask;
      if (peer < p) {
        T other = coll_recv<T>((peer + root) % p, coll_tag(seq, 0));
        acc = op(acc, other);
      }
    } else {
      const int parent = ((vrank & ~mask) + root) % p;
      coll_send(acc, parent, coll_tag(seq, 0));
      break;
    }
    mask <<= 1;
  }
  return acc;
}

template <class T, class Op>
T comm::allreduce(const T& v, Op op) const {
  T acc = reduce(v, op, 0);
  bcast(acc, 0);
  return acc;
}

template <class T, class Op>
std::vector<T> comm::allreduce_vec(const std::vector<T>& v, Op op) const {
  struct elementwise {
    Op op;
    std::vector<T> operator()(const std::vector<T>& a,
                              const std::vector<T>& b) const {
      YGM_CHECK(a.size() == b.size(),
                "allreduce_vec requires equal lengths on all ranks");
      std::vector<T> r(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) r[i] = op(a[i], b[i]);
      return r;
    }
  };
  return allreduce(v, elementwise{op});
}

template <class T>
std::vector<T> comm::gather(const T& v, int root) const {
  const int p = size();
  const std::uint64_t seq = coll_seq_++;
  if (rank_ != root) {
    coll_send(v, root, coll_tag(seq, 0));
    return {};
  }
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    if (src == root) {
      out.push_back(v);
    } else {
      out.push_back(coll_recv<T>(src, coll_tag(seq, 0)));
    }
  }
  return out;
}

template <class T>
std::vector<T> comm::allgather(const T& v) const {
  auto out = gather(v, 0);
  bcast(out, 0);
  return out;
}

template <class T>
T comm::scatter(const std::vector<T>& bufs, int root) const {
  const int p = size();
  const std::uint64_t seq = coll_seq_++;
  if (rank_ == root) {
    YGM_CHECK(static_cast<int>(bufs.size()) == p,
              "scatter requires one buffer per rank at root");
    for (int dest = 0; dest < p; ++dest) {
      if (dest != root) coll_send(bufs[static_cast<std::size_t>(dest)], dest,
                                  coll_tag(seq, 0));
    }
    return bufs[static_cast<std::size_t>(root)];
  }
  return coll_recv<T>(root, coll_tag(seq, 0));
}

template <class T, class Op>
T comm::scan(const T& v, Op op) const {
  // Linear chain: correct and simple; prefix latency is O(P), fine for the
  // rank counts this runtime hosts.
  const std::uint64_t seq = coll_seq_++;
  T acc = v;
  if (rank_ > 0) {
    acc = op(coll_recv<T>(rank_ - 1, coll_tag(seq, 0)), v);
  }
  if (rank_ + 1 < size()) {
    coll_send(acc, rank_ + 1, coll_tag(seq, 0));
  }
  return acc;
}

template <class T, class Op>
T comm::exscan(const T& v, Op op, T identity) const {
  const std::uint64_t seq = coll_seq_++;
  T before = identity;
  if (rank_ > 0) {
    before = coll_recv<T>(rank_ - 1, coll_tag(seq, 0));
  }
  if (rank_ + 1 < size()) {
    coll_send(rank_ == 0 ? v : op(before, v), rank_ + 1, coll_tag(seq, 0));
  }
  return before;
}

template <class T>
std::vector<std::vector<T>> comm::alltoallv(
    const std::vector<std::vector<T>>& sendbufs) const {
  const int p = size();
  YGM_CHECK(static_cast<int>(sendbufs.size()) == p,
            "alltoallv requires one send buffer per rank");
  const std::uint64_t seq = coll_seq_++;
  std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
  for (int dest = 0; dest < p; ++dest) {
    if (dest == rank_) continue;
    coll_send(sendbufs[static_cast<std::size_t>(dest)], dest,
              coll_tag(seq, 0));
  }
  out[static_cast<std::size_t>(rank_)] = sendbufs[static_cast<std::size_t>(rank_)];
  for (int src = 0; src < p; ++src) {
    if (src == rank_) continue;
    out[static_cast<std::size_t>(src)] =
        coll_recv<std::vector<T>>(src, coll_tag(seq, 0));
  }
  return out;
}

}  // namespace ygm::mpisim
