// Per-rank mailbox statistics.
//
// These counters are the bridge between executed runs and the network cost
// model: benches run the real mailbox at thread scale, then price the
// recorded local/remote packet traffic on the Fig. 5 bandwidth curve to
// report modeled time next to wall time (DESIGN.md §2).
//
// The struct keeps its plain-counter cost-model API (cheap, copyable,
// gatherable over mpisim), and additionally knows how to publish itself
// into a telemetry::metrics_registry so the mailbox layers feed the
// telemetry subsystem without a second set of counters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/params.hpp"
#include "telemetry/metrics.hpp"

namespace ygm::core {

struct mailbox_stats {
  std::uint64_t app_sends = 0;       ///< user send() calls
  std::uint64_t app_bcasts = 0;      ///< user send_bcast() calls
  std::uint64_t deliveries = 0;      ///< receive-callback invocations
  std::uint64_t hops_sent = 0;       ///< message-hop records flushed out
  std::uint64_t hops_received = 0;   ///< message-hop records parsed in
  std::uint64_t forwards = 0;        ///< records re-queued as intermediary
  std::uint64_t local_packets = 0;   ///< coalesced packets to same-node ranks
  std::uint64_t remote_packets = 0;  ///< coalesced packets across nodes
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t flushes = 0;         ///< capacity-triggered exchanges
  std::uint64_t credit_stalls = 0;   ///< sends blocked on exhausted credit
  /// Bytes of message records in shipped packets, each hop counted: packet
  /// bytes less arrival stamps, trace escapes and credit escapes.
  std::uint64_t record_bytes = 0;
  /// Partial buffers a credit stall shipped to free its own link.
  std::uint64_t credit_self_flushes = 0;

  mailbox_stats& operator+=(const mailbox_stats& o) {
    app_sends += o.app_sends;
    app_bcasts += o.app_bcasts;
    deliveries += o.deliveries;
    hops_sent += o.hops_sent;
    hops_received += o.hops_received;
    forwards += o.forwards;
    local_packets += o.local_packets;
    remote_packets += o.remote_packets;
    local_bytes += o.local_bytes;
    remote_bytes += o.remote_bytes;
    flushes += o.flushes;
    credit_stalls += o.credit_stalls;
    record_bytes += o.record_bytes;
    credit_self_flushes += o.credit_self_flushes;
    return *this;
  }

  /// Average packet size for a (packets, bytes) counter pair; 0 when no
  /// packets were recorded.
  static double avg_bytes(std::uint64_t packets, std::uint64_t bytes) {
    return packets == 0
               ? 0.0
               : static_cast<double>(bytes) / static_cast<double>(packets);
  }

  /// Average coalesced wire packet size — the quantity the routing schemes
  /// exist to maximize (paper §III-E).
  double avg_remote_packet_bytes() const {
    return avg_bytes(remote_packets, remote_bytes);
  }

  /// Average same-node packet size.
  double avg_local_packet_bytes() const {
    return avg_bytes(local_packets, local_bytes);
  }

  /// Price this rank's recorded traffic on a network model: transfer time
  /// the traffic would cost on the modeled machine.
  double modeled_comm_seconds(const net::network_params& np) const {
    double t = 0;
    if (remote_packets != 0) {
      t += static_cast<double>(remote_packets) *
           np.remote.transfer_time(avg_bytes(remote_packets, remote_bytes));
    }
    if (local_packets != 0) {
      t += static_cast<double>(local_packets) *
           np.local.transfer_time(avg_bytes(local_packets, local_bytes));
    }
    t += static_cast<double>(hops_sent + hops_received) * np.cpu_s_per_msg;
    return t;
  }

  /// Accumulate these counters into a metrics registry under
  /// "<prefix>.<counter>" (the telemetry taxonomy in docs/TELEMETRY.md).
  /// Summing is the right merge for multiple mailboxes on one rank and for
  /// cross-rank aggregation alike.
  void publish(telemetry::metrics_registry& m,
               std::string_view prefix = "mailbox") const {
    const std::string p(prefix);
    m.counter(p + ".app_sends") += app_sends;
    m.counter(p + ".app_bcasts") += app_bcasts;
    // deliveries is intentionally absent: it is counted live through
    // fast_counter::deliveries at the same increment sites (the sampler
    // needs it mid-run), and the fast counters fold into this registry at
    // merge — publishing it here too would double the teardown total.
    m.counter(p + ".hops_sent") += hops_sent;
    m.counter(p + ".hops_received") += hops_received;
    m.counter(p + ".forwards") += forwards;
    m.counter(p + ".local_packets") += local_packets;
    m.counter(p + ".remote_packets") += remote_packets;
    m.counter(p + ".local_bytes") += local_bytes;
    m.counter(p + ".remote_bytes") += remote_bytes;
    m.counter(p + ".flushes") += flushes;
    m.counter(p + ".credit_stalls") += credit_stalls;
    m.counter(p + ".record_bytes") += record_bytes;
    m.counter(p + ".credit_self_flushes") += credit_self_flushes;
  }
};

}  // namespace ygm::core
