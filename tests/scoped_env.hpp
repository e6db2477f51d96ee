// RAII override of one environment variable, for tests that pin how the
// YGM_* run variables resolve. Tests run single-threaded at the gtest
// level; rank threads only read the environment.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace ygm::test {

/// Sets `name` to `value` for a scope (nullptr: unsets it) and restores its
/// old value after.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~scoped_env() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  scoped_env(const scoped_env&) = delete;
  scoped_env& operator=(const scoped_env&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace ygm::test
