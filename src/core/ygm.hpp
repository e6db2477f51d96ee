// Umbrella header: everything a YGM application needs.
//
// Typical usage (see examples/quickstart.cpp):
//
//   ygm::launch({.nranks = n_ranks}, [](ygm::mpisim::comm& c) {
//     ygm::core::comm_world world(c, /*cores_per_node=*/4,
//                                 ygm::routing::scheme_kind::nlnr);
//     ygm::core::mailbox<MyMsg> mb(world, [&](const MyMsg& m) { ... });
//     mb.send(dest, msg);
//     mb.send_bcast(msg);
//     mb.wait_empty();
//   });
//
// ygm::launch (core/launch.hpp) is the one way to start ranks; its
// run_options table lists every knob and the YGM_* variable behind it.
#pragma once

#include "core/comm_world.hpp"
#include "core/launch.hpp"
#include "core/mailbox.hpp"
#include "core/packet.hpp"
#include "core/progress.hpp"
#include "core/stats.hpp"
#include "core/termination.hpp"
#include "net/evaluator.hpp"
#include "net/params.hpp"
#include "routing/router.hpp"
#include "routing/topology.hpp"
#include "ser/serialize.hpp"
