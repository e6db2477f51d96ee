// Delivery-invariant checking for chaos trials (docs/CHAOS.md).
//
// The chaos layer (transport/chaos.hpp) makes the transport adversarial
// while staying inside the MPI contract; this header supplies the other
// half of the methodology: traffic whose correctness is *checkable*. Every
// message carries (origin, kind, sequence number, content-derived filler),
// every rank keeps a ledger of what it injected and what it delivered, and
// a collective verify() pass at quiescence reconciles the two sides:
//
//   * exactly-once point-to-point delivery — the seq sets each origin sent
//     to me equal the seq sets I delivered, no duplicates, nothing extra;
//   * broadcast exactly-once-per-non-origin-rank — origin o's bcast seqs
//     {0..n-1} delivered exactly once everywhere except at o, never at o;
//   * conservation — global hops_sent == hops_received at quiescence;
//   * silence — zero deliveries after wait_empty()/test_empty() reported
//     quiescence (ledger "sealed" window);
//   * payload integrity — filler bytes are a function of the seq, so any
//     corruption or framing slip is caught at delivery time;
//   * counter cross-check — mailbox_stats agree with the ledger's own
//     tallies (the same counters the telemetry subsystem publishes).
//
// Violations are returned as strings rather than thrown so a sweep driver
// can print the failing seed/recipe and keep going.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <optional>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/comm_world.hpp"
#include "core/mailbox.hpp"
#include "core/progress.hpp"
#include "core/stats.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/types.hpp"
#include "net/params.hpp"
#include "routing/router.hpp"

namespace ygm::core {

// ------------------------------------------------------------- probe_msg

/// The unit of checkable traffic. Filler length varies per message (so
/// packets exercise variable-record framing) and its bytes are derived
/// from the sequence number (so corruption is detectable, not silent).
struct probe_msg {
  std::uint32_t origin = 0;          ///< sending rank
  std::uint8_t kind = 0;             ///< 0 = point-to-point, 1 = broadcast
  std::uint64_t seq = 0;             ///< unique per (origin, kind)
  std::vector<std::uint8_t> filler;  ///< seq-derived padding

  static std::uint8_t filler_byte(std::uint64_t seq, std::size_t i) {
    return static_cast<std::uint8_t>(ygm::splitmix64(seq + 1) >>
                                     ((i % 8) * 8));
  }

  bool filler_intact() const {
    for (std::size_t i = 0; i < filler.size(); ++i) {
      if (filler[i] != filler_byte(seq, i)) return false;
    }
    return true;
  }

  template <class Ar>
  void serialize(Ar& ar) {
    ar & origin & kind & seq & filler;
  }
};

// -------------------------------------------------------- delivery_ledger

/// One rank's view of the traffic: what it injected, what it delivered.
/// make_* note the send as a side effect; wire the mailbox callback to
/// note_delivery. seal()/unseal() bracket the quiescent windows in which
/// any delivery is a violation.
class delivery_ledger {
 public:
  delivery_ledger(int rank, int size)
      : rank_(rank),
        size_(size),
        sent_p2p_(static_cast<std::size_t>(size)) {}

  probe_msg make_p2p(int dest, std::size_t filler_bytes) {
    YGM_ASSERT(dest >= 0 && dest < size_);
    const std::uint64_t seq = next_p2p_seq_++;
    sent_p2p_[static_cast<std::size_t>(dest)].push_back(seq);
    return make(/*kind=*/0, seq, filler_bytes);
  }

  probe_msg make_bcast(std::size_t filler_bytes) {
    const std::uint64_t seq = bcasts_sent_++;
    return make(/*kind=*/1, seq, filler_bytes);
  }

  void note_delivery(const probe_msg& m) {
    ++deliveries_;
    if (sealed_) {
      violation() << "delivery after quiescence was reported (origin="
                  << m.origin << " kind=" << int(m.kind) << " seq=" << m.seq
                  << ")";
    }
    if (!m.filler_intact()) {
      violation() << "corrupted filler (origin=" << m.origin
                  << " kind=" << int(m.kind) << " seq=" << m.seq << ")";
    }
    auto& seen = m.kind == 0 ? seen_p2p_[m.origin] : seen_bcast_[m.origin];
    if (!seen.insert(m.seq).second) {
      violation() << "duplicate delivery (origin=" << m.origin
                  << " kind=" << int(m.kind) << " seq=" << m.seq << ")";
    }
  }

  void seal() { sealed_ = true; }
  void unseal() { sealed_ = false; }

  std::uint64_t deliveries() const noexcept { return deliveries_; }

  /// Collective (every rank of `c` must call, in the same program order):
  /// reconcile send ledgers against delivery ledgers and cross-check the
  /// mailbox counters. Returns this rank's violations; gather to taste.
  std::vector<std::string> verify(mpisim::comm& c, const mailbox_stats& st) {
    YGM_CHECK(c.size() == size_, "ledger/communicator size mismatch");

    // Point-to-point: each rank learns exactly which seqs every origin
    // addressed to it.
    const auto expected_p2p = c.alltoallv(sent_p2p_);
    std::uint64_t expected_deliveries = 0;
    for (int src = 0; src < size_; ++src) {
      const auto& exp = expected_p2p[static_cast<std::size_t>(src)];
      expected_deliveries += exp.size();
      const auto it = seen_p2p_.find(static_cast<std::uint32_t>(src));
      static const std::unordered_set<std::uint64_t> kNone;
      const auto& seen = it != seen_p2p_.end() ? it->second : kNone;
      std::size_t matched = 0;
      for (const auto seq : exp) {
        if (seen.count(seq) != 0) {
          ++matched;
        } else {
          violation() << "lost p2p message (origin=" << src << " seq=" << seq
                      << ")";
        }
      }
      if (matched < seen.size()) {
        violation() << "phantom p2p deliveries from origin=" << src << " ("
                    << seen.size() - matched << " seqs never sent here)";
      }
    }

    // Broadcasts: origin o's seqs {0..n-1} reach every rank except o.
    const auto bcast_counts = c.allgather(bcasts_sent_);
    for (int src = 0; src < size_; ++src) {
      const auto n = bcast_counts[static_cast<std::size_t>(src)];
      const auto it = seen_bcast_.find(static_cast<std::uint32_t>(src));
      const std::size_t seen_n = it != seen_bcast_.end() ? it->second.size() : 0;
      if (src == rank_) {
        if (seen_n != 0) {
          violation() << "broadcast delivered at its own origin (origin="
                      << src << ", " << seen_n << " copies)";
        }
        continue;
      }
      expected_deliveries += n;
      for (std::uint64_t seq = 0; seq < n; ++seq) {
        if (it == seen_bcast_.end() || it->second.count(seq) == 0) {
          violation() << "lost broadcast (origin=" << src << " seq=" << seq
                      << ")";
        }
      }
      if (seen_n > n) {
        violation() << "phantom broadcast deliveries from origin=" << src;
      }
    }

    // Conservation at quiescence: every hop that left a rank arrived at one.
    const auto global_sent = c.allreduce(st.hops_sent, mpisim::op_sum{});
    const auto global_recv = c.allreduce(st.hops_received, mpisim::op_sum{});
    if (rank_ == 0 && global_sent != global_recv) {
      violation() << "hop conservation broken: global hops_sent="
                  << global_sent << " != hops_received=" << global_recv;
    }

    // Counter cross-check: the mailbox's own statistics (the numbers the
    // telemetry subsystem publishes) must agree with the ledger.
    if (st.app_sends != next_p2p_seq_) {
      violation() << "stats.app_sends=" << st.app_sends << " but ledger sent "
                  << next_p2p_seq_;
    }
    if (st.app_bcasts != bcasts_sent_) {
      violation() << "stats.app_bcasts=" << st.app_bcasts
                  << " but ledger sent " << bcasts_sent_;
    }
    if (st.deliveries != deliveries_) {
      violation() << "stats.deliveries=" << st.deliveries
                  << " but ledger saw " << deliveries_;
    }
    if (deliveries_ != expected_deliveries && violations_.empty()) {
      violation() << "delivery count " << deliveries_ << " != expected "
                  << expected_deliveries;
    }

    std::vector<std::string> out;
    out.reserve(violations_.size());
    for (auto& v : violations_) out.push_back("rank " + std::to_string(rank_) +
                                              ": " + v.str());
    violations_.clear();
    return out;
  }

 private:
  probe_msg make(std::uint8_t kind, std::uint64_t seq,
                 std::size_t filler_bytes) {
    probe_msg m;
    m.origin = static_cast<std::uint32_t>(rank_);
    m.kind = kind;
    m.seq = seq;
    m.filler.resize(filler_bytes);
    for (std::size_t i = 0; i < filler_bytes; ++i) {
      m.filler[i] = probe_msg::filler_byte(seq, i);
    }
    return m;
  }

  std::ostringstream& violation() {
    violations_.emplace_back();
    return violations_.back();
  }

  int rank_;
  int size_;
  bool sealed_ = false;

  std::uint64_t next_p2p_seq_ = 0;
  std::uint64_t bcasts_sent_ = 0;
  std::uint64_t deliveries_ = 0;
  std::vector<std::vector<std::uint64_t>> sent_p2p_;  // [dest] -> seqs

  std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
      seen_p2p_;
  std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
      seen_bcast_;

  std::vector<std::ostringstream> violations_;
};

// ----------------------------------------------------------- trial harness

/// One chaos trial: machine shape, traffic volume, fault recipe. The
/// describe() string is the complete reproduction recipe — print it with
/// any violation.
struct trial_config {
  std::uint64_t seed = 0;
  routing::scheme_kind scheme = routing::scheme_kind::no_route;
  int nodes = 2;
  int cores = 2;
  std::size_t capacity = 1024;
  bool timed = false;
  bool serialize_self_sends = false;
  int msgs_per_rank = 40;
  int bcasts_per_rank = 3;
  int epochs = 2;
  /// Wrap each epoch's injection phase in a ygm::progress::guard, opting
  /// the traffic into engine stealing when a progress engine is installed
  /// (a no-op marker in polling mode — the sweep matrix runs both).
  bool use_progress_guard = false;
  /// Per-destination flow-control budget for the trial's mailboxes; 0
  /// leaves the world's resolved default (env/launch) in place. Nonzero
  /// values exercise the credit gate under chaos — the ledger then proves
  /// backpressure never breaks exactly-once or termination.
  std::size_t credit_bytes = 0;
  /// Nonzero: rank 0 additionally floods the last rank with p2p traffic
  /// paced to approximately this many bytes per second — the asymmetric
  /// hot-producer/slow-consumer pattern that exposed unbounded buffer
  /// growth. The ledger verifies the flood like any other traffic.
  std::size_t flood_bytes_per_s = 0;
  mpisim::chaos_config chaos;

  int num_ranks() const { return nodes * cores; }

  std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " scheme=" << routing::to_string(scheme)
       << " topo=" << nodes << "x" << cores << " cap=" << capacity
       << " timed=" << int(timed) << " selfser=" << int(serialize_self_sends)
       << " msgs=" << msgs_per_rank << " bcasts=" << bcasts_per_rank
       << " epochs=" << epochs << " guard=" << int(use_progress_guard)
       << " credit=" << credit_bytes << " flood=" << flood_bytes_per_s
       << " chaos={" << chaos.describe() << "}";
    return os.str();
  }
};

/// Run one rank's share of a chaos trial on an already-running communicator
/// (call from inside ygm::launch, every rank). Returns this rank's invariant
/// violations.
///
/// Per epoch: random p2p traffic + broadcasts with interleaved polls, then
/// quiescence — ranks alternate between wait_empty() and a test_empty()
/// polling loop (the two share one detector protocol, so mixing them across
/// ranks must work) — then a sealed silence window in which any delivery is
/// a violation.
inline std::vector<std::string> run_chaos_trial(mpisim::comm& c,
                                                const trial_config& t) {
  const routing::topology topo(t.nodes, t.cores);
  comm_world world(c, topo, t.scheme);
  if (t.timed) {
    world.attach_virtual_network(net::network_params::quartz_like());
  }
  world.set_serialize_self_sends(t.serialize_self_sends);
  if (t.credit_bytes != 0) world.set_credit_bytes(t.credit_bytes);

  delivery_ledger ledger(c.rank(), c.size());
  mailbox<probe_msg> mb(
      world, [&](const probe_msg& m) { ledger.note_delivery(m); }, t.capacity);

  ygm::xoshiro256 rng(ygm::splitmix64(t.seed) ^
                      static_cast<std::uint64_t>(c.rank()));
  for (int epoch = 0; epoch < t.epochs; ++epoch) {
    ledger.unseal();
    {
      // Injection phase, optionally under an engine guard: the engine may
      // then steal drains and defer deliveries concurrently with the sends
      // below — the ledger still has to come out exactly-once.
      std::optional<progress::guard> guard;
      if (t.use_progress_guard) guard.emplace(world);
      for (int i = 0; i < t.msgs_per_rank; ++i) {
        const int dest =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(c.size())));
        const auto filler = static_cast<std::size_t>(rng.below(48));
        mb.send(dest, ledger.make_p2p(dest, filler));
        if (rng.below(4) == 0) mb.poll();
      }
      for (int b = 0; b < t.bcasts_per_rank; ++b) {
        mb.send_bcast(
            ledger.make_bcast(static_cast<std::size_t>(rng.below(32))));
      }
      // Flood phase: rank 0 hammers the last rank with paced traffic. The
      // consumer injects nothing extra and drains only at the epoch's
      // quiescence point, so the producer genuinely outruns it — the credit
      // gate (when on) is what keeps its queues bounded.
      if (t.flood_bytes_per_s != 0 && c.rank() == 0 && c.size() > 1) {
        const int dest = c.size() - 1;
        constexpr std::size_t kFiller = 40;
        // Approximate wire cost per message: the ledger payload plus the
        // packet record framing; pacing only needs to be roughly right.
        const double bytes_per_msg = static_cast<double>(kFiller) + 24.0;
        const auto start = std::chrono::steady_clock::now();
        double sent = 0;
        for (int i = 0; i < t.msgs_per_rank * 4; ++i) {
          mb.send(dest, ledger.make_p2p(dest, kFiller));
          sent += bytes_per_msg;
          const double target_s =
              sent / static_cast<double>(t.flood_bytes_per_s);
          const double elapsed_s =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          if (target_s > elapsed_s) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(target_s - elapsed_s));
          }
        }
      }
    }

    if ((c.rank() + epoch) % 2 == 0) {
      mb.wait_empty();
    } else {
      while (!mb.test_empty()) std::this_thread::yield();
    }
    ledger.seal();
    // Quiescence was just confirmed globally, so these polls must deliver
    // nothing — on any rank, barrier or not.
    for (int i = 0; i < 32; ++i) mb.poll();
    c.barrier();
  }

  return ledger.verify(c, mb.stats());
}

}  // namespace ygm::core
