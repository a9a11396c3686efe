#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace availsim::sim {

/// Move-only callable holder for simulator events.
///
/// The simulator schedules millions of events per campaign, and
/// `std::function` heap-allocates for any capture larger than two words.
/// EventFn stores callables up to kInlineSize bytes inline (a network
/// delivery closure — packet + send options + this — fits) and only falls
/// back to the heap beyond that. Being move-only, it also accepts
/// non-copyable captures (e.g. moved-in unique_ptr state).
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 96;

  /// True when a callable of type F is stored inline, i.e. wrapping it
  /// never allocates. Callers that build closures on hot paths
  /// static_assert this.
  template <typename F>
  static constexpr bool stores_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor):
                                       // empty, like std::function's.

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule_* call site.
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));  // availlint: hot-ok(cold fallback for captures over kInlineSize; hot-path lambdas fit inline)
      std::memcpy(buf_, &heap, sizeof(heap));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->call(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*call)(void*);
    void (*relocate)(void*, void*) noexcept;  // move into dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static void inline_call(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void inline_relocate(void* src, void* dst) noexcept {
    D* s = static_cast<D*>(src);
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <typename D>
  static void inline_destroy(void* p) noexcept {
    static_cast<D*>(p)->~D();
  }

  template <typename D>
  static D* heap_ptr(void* p) noexcept {
    D* ptr;
    std::memcpy(&ptr, p, sizeof(ptr));
    return ptr;
  }
  template <typename D>
  static void heap_call(void* p) {
    (*heap_ptr<D>(p))();
  }
  template <typename D>
  static void heap_relocate(void* src, void* dst) noexcept {
    std::memcpy(dst, src, sizeof(D*));
  }
  template <typename D>
  static void heap_destroy(void* p) noexcept {
    delete heap_ptr<D>(p);
  }

  template <typename D>
  static constexpr Ops kInlineOps{&inline_call<D>, &inline_relocate<D>,
                                  &inline_destroy<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&heap_call<D>, &heap_relocate<D>,
                                &heap_destroy<D>};

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace availsim::sim
