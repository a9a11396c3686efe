#include "alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// The simulator is single-threaded, so plain globals suffice.
bool g_on = false;
std::uint64_t g_calls = 0;
std::uint64_t g_bytes = 0;

void* counted(std::size_t n, std::size_t align = 0) {
  if (g_on) {
    ++g_calls;
    g_bytes += n;
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  } else {
    p = std::malloc(n);
  }
  return p;
}

void* counted_or_throw(std::size_t n, std::size_t align = 0) {
  void* p = counted(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace availbench::alloc {

void start() {
  g_calls = 0;
  g_bytes = 0;
  g_on = true;
}

Counts stop() {
  g_on = false;
  return {g_calls, g_bytes};
}

Pause::Pause() : was_on_(g_on) { g_on = false; }
Pause::~Pause() { g_on = was_on_; }

}  // namespace availbench::alloc

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
