#include "transport/shm/spsc_ring.hpp"

#include <sys/mman.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#else
#include <chrono>
#include <thread>
#endif

namespace ygm::transport::shm {

std::byte* map_mirrored(int fd, std::size_t offset,
                        std::size_t bytes) noexcept {
  // Reserve both halves first so nothing else can land in the second one,
  // then map the file pages over the reservation twice.
  void* va = ::mmap(nullptr, 2 * bytes, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (va == MAP_FAILED) return nullptr;
  auto* base = static_cast<std::byte*>(va);
  for (std::size_t half = 0; half < 2; ++half) {
    if (::mmap(base + half * bytes, bytes, PROT_READ, MAP_SHARED | MAP_FIXED,
               fd, static_cast<off_t>(offset)) == MAP_FAILED) {
      ::munmap(va, 2 * bytes);
      return nullptr;
    }
  }
  return base;
}

void unmap_mirrored(std::byte* p, std::size_t bytes) noexcept {
  if (p != nullptr) ::munmap(p, 2 * bytes);
}

#if defined(__linux__)

void futex_wait(const std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                std::uint32_t timeout_us) noexcept {
  timespec ts;
  ts.tv_sec = timeout_us / 1000000u;
  ts.tv_nsec = static_cast<long>(timeout_us % 1000000u) * 1000;
  // FUTEX_WAIT (not _PRIVATE): the word lives in a mapping shared between
  // rank processes. EAGAIN (value changed), EINTR, and ETIMEDOUT are all
  // fine — callers re-check their condition in a loop regardless.
  (void)::syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(addr),
                  FUTEX_WAIT, expected, &ts, nullptr, 0);
}

void futex_wake(const std::atomic<std::uint32_t>* addr, int count) noexcept {
  (void)::syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(addr),
                  FUTEX_WAKE, count, nullptr, nullptr, 0);
}

#else  // portable fallback: bounded sleep keeps waits correct, just not woken

void futex_wait(const std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                std::uint32_t timeout_us) noexcept {
  if (addr->load(std::memory_order_acquire) != expected) return;
  const std::uint32_t capped = timeout_us < 1000u ? timeout_us : 1000u;
  std::this_thread::sleep_for(std::chrono::microseconds(capped));
}

void futex_wake(const std::atomic<std::uint32_t>*, int) noexcept {}

#endif

}  // namespace ygm::transport::shm
