#include "transport/chaos.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/env.hpp"

namespace ygm::transport {

chaos_config chaos_config::light(std::uint64_t seed) {
  chaos_config c;
  c.seed = seed;
  c.delay_prob = 0.25;
  c.max_delay_ticks = 6;
  c.iprobe_miss_prob = 0.10;
  c.max_consecutive_misses = 8;
  c.stall_prob = 0.01;
  c.max_stall_us = 50;
  return c;
}

chaos_config chaos_config::heavy(std::uint64_t seed) {
  chaos_config c;
  c.seed = seed;
  c.delay_prob = 0.50;
  c.max_delay_ticks = 16;
  c.iprobe_miss_prob = 0.30;
  c.max_consecutive_misses = 32;
  c.stall_prob = 0.04;
  c.max_stall_us = 100;
  return c;
}

std::optional<chaos_config> chaos_config::from_env() {
  if (auto preset = env::read(
          "YGM_CHAOS", "light or heavy, with an optional :SEED",
          [](const std::string& s) -> std::optional<chaos_config> {
            const auto colon = s.find(':');
            const std::string name = s.substr(0, colon);
            const auto seed = colon == std::string::npos
                                  ? std::optional<std::uint64_t>(0)
                                  : env::to_unsigned(s.substr(colon + 1), 0);
            if (seed && name == "heavy") return heavy(*seed);
            if (seed && name == "light") return light(*seed);
            return std::nullopt;
          })) {
    return preset;
  }

  chaos_config c;
  bool any = false;
  const auto integer = [&any](const char* name, auto& field) {
    using T = std::decay_t<decltype(field)>;
    if (const auto n =
            env::read(name, "an unsigned integer", [](const std::string& s) {
              return env::to_unsigned(s, 0, std::numeric_limits<T>::max());
            })) {
      field = static_cast<T>(*n);
      any = true;
    }
  };
  const auto number = [&any](const char* name, double& field) {
    if (const auto d = env::read(name, "a number", [](const std::string& s) {
          char* end = nullptr;
          const double v = std::strtod(s.c_str(), &end);
          const bool whole =
              *end == '\0' && std::isfinite(v) &&
              std::isspace(static_cast<unsigned char>(s[0])) == 0;
          return whole ? std::optional<double>(v) : std::nullopt;
        })) {
      field = *d;
      any = true;
    }
  };
  integer("YGM_CHAOS_SEED", c.seed);
  number("YGM_CHAOS_DELAY_PROB", c.delay_prob);
  integer("YGM_CHAOS_MAX_DELAY_TICKS", c.max_delay_ticks);
  number("YGM_CHAOS_IPROBE_MISS_PROB", c.iprobe_miss_prob);
  number("YGM_CHAOS_STALL_PROB", c.stall_prob);
  integer("YGM_CHAOS_MAX_STALL_US", c.max_stall_us);
  if (!any) return std::nullopt;
  return c;
}

std::string chaos_config::describe() const {
  std::ostringstream oss;
  oss << "seed=" << seed << " delay=" << delay_prob << "x" << max_delay_ticks
      << " miss=" << iprobe_miss_prob << "/" << max_consecutive_misses
      << " stall=" << stall_prob << "x" << max_stall_us << "us";
  return oss.str();
}

}  // namespace ygm::transport
