// Strict readers for the YGM_* run variables (the table in core/launch.hpp).
//
// An unset or empty variable reads as nullopt: "not set". A value that does
// not parse as a whole throws ygm::error naming the variable and its text,
// so a typo fails the launch instead of quietly running a default.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/assert.hpp"

namespace ygm::env {

/// `name`'s text through `parse`, which returns nullopt for a malformed
/// text; nullopt when the variable is unset or empty. A malformed value
/// throws ygm::error naming the variable, its text and `expected`.
template <class Parse>
auto read(const char* name, const char* expected, Parse parse)
    -> decltype(parse(std::string{})) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  auto value = parse(std::string(v));
  if (!value) {
    throw ygm::error(std::string(name) + "='" + v +
                     "' is malformed (expected " + expected + ")");
  }
  return value;
}

/// `s` as a whole unsigned integer no greater than `max`, without sign or
/// spaces: decimal, or with `base` 0 (strtoull's) also 0x-hex and 0-octal.
inline std::optional<std::uint64_t> to_unsigned(
    const std::string& s, int base = 10, std::uint64_t max = UINT64_MAX) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(s.c_str(), &end, base);
  if (errno != 0 || *end != '\0' || n > max) return std::nullopt;
  return n;
}

/// Decimal unsigned bytes.
inline std::optional<std::size_t> bytes(const char* name) {
  return read(name, "decimal unsigned bytes",
              [](const std::string& s) { return to_unsigned(s); });
}

/// A non-negative decimal integer of milliseconds.
inline std::optional<int> millis(const char* name) {
  const auto n =
      read(name, "non-negative integer milliseconds",
           [](const std::string& s) { return to_unsigned(s, 10, INT_MAX); });
  return n ? std::optional<int>(static_cast<int>(*n)) : std::nullopt;
}

/// A flag: 0 or 1.
inline std::optional<bool> flag(const char* name) {
  return read(name, "0 or 1", [](const std::string& s) -> std::optional<bool> {
    if (s == "0" || s == "1") return s == "1";
    return std::nullopt;
  });
}

}  // namespace ygm::env
