// Global allocation counter for the test binaries that link this file:
// every operator new bumps it (see alloc_counter.hpp).

#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The replacement pair is malloc/free-based by design; GCC's pairing
// heuristic cannot see that and warns spuriously.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
