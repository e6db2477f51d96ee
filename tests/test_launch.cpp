// ygm::launch's run knobs (the table in core/launch.hpp): each run_options
// field resolves as field > YGM_* variable > default, every documented
// syntax reads as documented, and a malformed variable fails the launch
// with a ygm::error naming it instead of running a default.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstddef>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "core/launch.hpp"
#include "core/ygm.hpp"
#include "scoped_env.hpp"
#include "ser/serialize.hpp"
#include "telemetry/live.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/statusz.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::mpisim::chaos_config;
using ygm::test::scoped_env;
using ygm::transport::backend_kind;

constexpr const char* kRunVariables[] = {
    "YGM_TRANSPORT",
    "YGM_PROGRESS",
    "YGM_CHAOS",
    "YGM_CHAOS_SEED",
    "YGM_CHAOS_DELAY_PROB",
    "YGM_CHAOS_MAX_DELAY_TICKS",
    "YGM_CHAOS_IPROBE_MISS_PROB",
    "YGM_CHAOS_STALL_PROB",
    "YGM_CHAOS_MAX_STALL_US",
    "YGM_CREDIT_BYTES",
    "YGM_OUTQ_CAP_BYTES",
    "YGM_SAMPLE_MS",
    "YGM_STATUSZ",
};

/// Each test starts with every run variable unset, so an ambient value
/// (a test preset's YGM_CHAOS, say) cannot decide what it sees.
class RunKnobs : public ::testing::Test {
 protected:
  RunKnobs() {
    for (std::size_t i = 0; i < std::size(kRunVariables); ++i) {
      cleared_[i].emplace(kRunVariables[i], nullptr);
    }
  }

 private:
  std::optional<scoped_env> cleared_[std::size(kRunVariables)];
};

bool statusz_serving() {
  const std::string path = ygm::telemetry::live::statusz_dir() +
                           "/ygm-statusz." + std::to_string(::getpid()) +
                           ".sock";
  return !ygm::telemetry::live::statusz_query(path, "health").empty();
}

/// What `var` resolved to, as the rank of a one-rank launch with `opts`
/// sees it.
std::string observe(std::string_view var, ygm::run_options opts = {}) {
  opts.nranks = 1;
  const auto blobs = ygm::launch_collect(opts, [&](sim::comm& c) {
    std::string seen;
    if (var == "YGM_CREDIT_BYTES") {
      ygm::core::comm_world world(c, 1, ygm::routing::scheme_kind::no_route);
      seen = std::to_string(world.credit_bytes());
    } else if (var == "YGM_OUTQ_CAP_BYTES") {
      seen = std::to_string(c.get_endpoint().outq_cap());
    } else if (var == "YGM_SAMPLE_MS") {
      seen = std::to_string(
          ygm::telemetry::live::sampler::info_installed().first);
    } else if (var == "YGM_STATUSZ") {
      seen = statusz_serving() ? "1" : "0";
    } else if (var == "YGM_TRANSPORT") {
      seen = ygm::transport::to_string(c.get_endpoint().kind());
    } else if (var == "YGM_PROGRESS") {
      seen = ygm::progress::current() != nullptr ? "engine" : "polling";
    } else {
      seen = chaos_config::from_env().value_or(chaos_config{}).describe();
    }
    return ygm::ser::to_bytes(seen);
  });
  return ygm::ser::from_bytes<std::string>(blobs.at(0));
}

/// Rows name the variable and its text; the test name is both, with every
/// other character an underscore.
template <class Row>
std::string row_name(const ::testing::TestParamInfo<Row>& info) {
  std::string name = std::string(info.param.var) + "_" + info.param.value;
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

// --------------------------------------------------------- malformed values

struct malformed_row {
  const char* var;
  const char* value;
};

// Rows print as VAR=value, so ctest lists each under a stable name.
void PrintTo(const malformed_row& r, std::ostream* os) {
  *os << r.var << '=' << r.value;
}

class MalformedKnob : public RunKnobs,
                      public ::testing::WithParamInterface<malformed_row> {};

TEST_P(MalformedKnob, FailsTheLaunchNamingTheVariable) {
  const auto& [var, value] = GetParam();
  scoped_env env(var, value);
  bool ran = false;
  try {
    ygm::launch({.nranks = 1}, [&](sim::comm&) { ran = true; });
    ADD_FAILURE() << var << "=" << value << " launched";
  } catch (const ygm::error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string(var) + "='" + value + "'"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(ran);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, MalformedKnob,
    ::testing::Values(
        // Typos a lenient parser reads as a default or a partial number:
        // 1 MiB, 4 MiB, a 1 ms sampler, statusz on, no chaos at all, chaos
        // with seed 0, and a 0 delay probability.
        malformed_row{"YGM_CREDIT_BYTES", "64KiB"},
        malformed_row{"YGM_OUTQ_CAP_BYTES", "4M"},
        malformed_row{"YGM_SAMPLE_MS", "1OO"},
        malformed_row{"YGM_STATUSZ", "false"},
        malformed_row{"YGM_CHAOS", "hevy:7"},
        malformed_row{"YGM_CHAOS", "heavy:x7"},
        malformed_row{"YGM_CHAOS_DELAY_PROB", "half"},
        malformed_row{"YGM_TRANSPORT", "sockets"},
        malformed_row{"YGM_PROGRESS", "engien"},
        malformed_row{"YGM_CREDIT_BYTES", "-1"},
        malformed_row{"YGM_SAMPLE_MS", "-5"},
        malformed_row{"YGM_CHAOS_MAX_DELAY_TICKS", "4294967296"}),
    row_name<malformed_row>);

// ------------------------------------------------------ well-formed values

struct well_formed_row {
  const char* var;
  const char* value;
  std::string seen;  ///< what observe(var) reads
  bool live = false;  ///< needs the live services (compiled out without
                      ///< telemetry)
};

void PrintTo(const well_formed_row& r, std::ostream* os) {
  *os << r.var << '=' << r.value;
}

class WellFormedKnob : public RunKnobs,
                       public ::testing::WithParamInterface<well_formed_row> {
};

TEST_P(WellFormedKnob, ResolvesAsDocumented) {
  const auto& row = GetParam();
#if defined(YGM_TELEMETRY_DISABLED)
  if (row.live) GTEST_SKIP() << "live services compiled out";
#endif
  scoped_env env(row.var, row.value);
  EXPECT_EQ(observe(row.var), row.seen);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, WellFormedKnob,
    ::testing::Values(
        well_formed_row{"YGM_CREDIT_BYTES", "65536", "65536"},
        well_formed_row{"YGM_CREDIT_BYTES", "0", "0"},
        well_formed_row{"YGM_OUTQ_CAP_BYTES", "4096", "4096"},
        well_formed_row{"YGM_OUTQ_CAP_BYTES", "0", "0"},
        well_formed_row{"YGM_SAMPLE_MS", "25", "25", true},
        well_formed_row{"YGM_SAMPLE_MS", "0", "0"},
        well_formed_row{"YGM_STATUSZ", "1", "1", true},
        well_formed_row{"YGM_STATUSZ", "0", "0"},
        well_formed_row{"YGM_TRANSPORT", "socket", "socket"},
        well_formed_row{"YGM_TRANSPORT", "shm", "shm"},
        well_formed_row{"YGM_PROGRESS", "engine", "engine"},
        well_formed_row{"YGM_PROGRESS", "polling", "polling"},
        well_formed_row{"YGM_CHAOS", "heavy:7",
                        chaos_config::heavy(7).describe()},
        well_formed_row{"YGM_CHAOS", "light",
                        chaos_config::light(0).describe()},
        well_formed_row{"YGM_CHAOS", "light:0x10",
                        chaos_config::light(16).describe()},
        well_formed_row{"YGM_CHAOS_DELAY_PROB", "0.25", [] {
                          chaos_config c;
                          c.delay_prob = 0.25;
                          return c.describe();
                        }()}),
    row_name<well_formed_row>);

// ------------------------------------------------------------- precedence

TEST_F(RunKnobs, OutqCapFieldWinsOverVariableOverDefault) {
  EXPECT_EQ(observe("YGM_OUTQ_CAP_BYTES"), std::to_string(4u << 20));
  scoped_env env("YGM_OUTQ_CAP_BYTES", "4096");
  EXPECT_EQ(observe("YGM_OUTQ_CAP_BYTES"), "4096");
  EXPECT_EQ(observe("YGM_OUTQ_CAP_BYTES", {.outq_cap_bytes = std::size_t{0}}),
            "0");
  // The socket backend takes the cap through the forked launch; shm has no
  // cap of its own to take.
  EXPECT_EQ(observe("YGM_OUTQ_CAP_BYTES", {.backend = backend_kind::socket,
                                           .outq_cap_bytes = 8192}),
            "8192");
  EXPECT_EQ(observe("YGM_OUTQ_CAP_BYTES", {.backend = backend_kind::shm}),
            "0");
}

TEST_F(RunKnobs, SampleMsFieldWinsOverVariableOverDefault) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "the sampler is compiled out with -DYGM_TELEMETRY=OFF";
#endif
  EXPECT_EQ(observe("YGM_SAMPLE_MS"), "100");
  scoped_env env("YGM_SAMPLE_MS", "25");
  EXPECT_EQ(observe("YGM_SAMPLE_MS"), "25");
  EXPECT_EQ(observe("YGM_SAMPLE_MS", {.sample_ms = 0}), "0");
  EXPECT_EQ(observe("YGM_SAMPLE_MS", {.sample_ms = 7}), "7");
}

TEST_F(RunKnobs, StatuszFieldWinsOverVariableOverDefault) {
#if defined(YGM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "statusz is compiled out with -DYGM_TELEMETRY=OFF";
#endif
  EXPECT_EQ(observe("YGM_STATUSZ"), "0");
  scoped_env env("YGM_STATUSZ", "1");
  EXPECT_EQ(observe("YGM_STATUSZ"), "1");
  EXPECT_EQ(observe("YGM_STATUSZ", {.statusz = 0}), "0");
}

}  // namespace
