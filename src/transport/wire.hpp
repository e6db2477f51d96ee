// The frame header of the process-per-rank backends (socket, shm).
//
// Both put this header in front of every payload they move, so its layout
// is the ABI they share. Each backend numbers its own frame kinds.
#pragma once

#include <cstdint>

namespace ygm::transport {

struct wire_header {
  std::uint32_t kind = 0;  ///< backend-specific frame kind
  std::uint32_t payload_len = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint64_t ctx = 0;
};
static_assert(sizeof(wire_header) == 24, "framed header layout is the ABI");

}  // namespace ygm::transport
