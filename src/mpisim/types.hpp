// MPI-style names for transport types: the status/wildcard vocabulary and
// the chaos fault-injection config, which live in the transport substrate
// (src/transport/types.hpp, src/transport/chaos.hpp) so every backend
// shares them.
#pragma once

#include "transport/chaos.hpp"
#include "transport/types.hpp"

namespace ygm::mpisim {

using transport::any_source;
using transport::any_tag;
using transport::chaos_config;
using transport::status;
using transport::tag_ub;

}  // namespace ygm::mpisim
