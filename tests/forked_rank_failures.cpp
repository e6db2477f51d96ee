// Linked into every test binary: makes a failed assertion inside a forked
// rank body fail the launch.
//
// On the socket and shm backends each rank body runs in a forked child. A
// failed EXPECT/ASSERT there is recorded in the child's copy of the test
// results, which die with the child, so the test would still pass. A
// pthread_atfork child handler switches every forked child to
// throw_on_failure: the first failed assertion throws, the rank reports
// the failure text as its error, and ygm::launch rethrows it in the test.
#include <gtest/gtest.h>
#include <pthread.h>

namespace {

// GTEST_FLAG rather than GTEST_FLAG_SET: the latter needs gtest >= 1.12.
const int forked_children_throw_on_failure = ::pthread_atfork(
    nullptr, nullptr, [] { ::testing::GTEST_FLAG(throw_on_failure) = true; });

}  // namespace
