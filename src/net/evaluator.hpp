// Analytic evaluator: predicts per-core communication cost for a routing
// scheme on an (N nodes × C cores) machine under a parameterized traffic
// model, using the network performance model in params.hpp.
//
// Why this exists: the paper's experiments run on up to 1024 nodes × 36
// cores of LLNL Quartz. A development host has a few cores (the docs
// measure on one with 4), so executed runs top out around 64 rank-threads.
// The evaluator reproduces the paper's figures at full scale by computing,
// exactly, the quantity the routing schemes control — how many distinct
// remote partners each core has and therefore how large its coalesced
// packets can be for a fixed mailbox capacity — and pricing the resulting
// transfers on the Fig. 5 bandwidth curve. Executed runs at small scale
// cross-validate the model (see EXPERIMENTS.md).
//
// Method: routes are enumerated with the *actual* router (the same
// next_hop/bcast_next_hops logic the mailbox executes), from a
// representative source per symmetry class; per-core flows follow from
// vertex transitivity of the schemes. Packet sizes are the proportional
// share of the mailbox buffer each next-hop partner holds at flush time.
#pragma once

#include <cstddef>

#include "net/params.hpp"
#include "routing/router.hpp"

namespace ygm::net {

/// Application traffic originated by EACH core. Point-to-point destinations
/// are uniform over all other ranks (the paper's analysis assumption,
/// §III-E); broadcasts go to everyone via the scheme's bcast tree.
struct traffic_model {
  double p2p_bytes = 0;        ///< total point-to-point payload bytes (V)
  double p2p_msg_bytes = 16;   ///< bytes per application message
  double bcast_count = 0;      ///< broadcasts originated per core
  double bcast_msg_bytes = 16; ///< payload bytes per broadcast message
};

/// Per-core cost breakdown (the critical-path core for asymmetric schemes).
struct eval_result {
  double total_s = 0;        ///< remote + local + cpu
  double remote_s = 0;       ///< wire transfer time
  double local_s = 0;        ///< shared-memory transfer time
  double cpu_s = 0;          ///< message handling/copy time
  double remote_bytes = 0;   ///< wire bytes sent per core
  double local_bytes = 0;    ///< shared-memory bytes sent per core
  double remote_packets = 0; ///< coalesced wire packets sent per core
  double local_packets = 0;
  double remote_packet_bytes = 0;  ///< average coalesced wire packet size
  int max_remote_partners = 0;     ///< worst-case distinct remote partners
  double handled_msgs = 0;   ///< send+receive+forward events per core
};

/// Evaluate one (scheme, machine, mailbox, traffic) configuration.
/// mailbox_bytes is the coalescing buffer capacity per core, in bytes
/// (the paper's "mailbox size" times its message size).
eval_result evaluate(const routing::router& r, const network_params& np,
                     std::size_t mailbox_bytes, const traffic_model& tm);

}  // namespace ygm::net
