// Global allocation counters for the test binaries that link this file:
// every operator new bumps the call count and adds its block to the live
// bytes, and every operator delete takes its block back out (see
// alloc_counter.hpp).

#include "alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

// The replacement pair is malloc/free-based by design; GCC's pairing
// heuristic cannot see that and warns spuriously.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t block_bytes(void* p) {
  return static_cast<std::int64_t>(malloc_usable_size(p));
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(block_bytes(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    g_live_bytes.fetch_add(block_bytes(p), std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
