// Move-only type-erased callable with a small inline buffer.
//
// std::function keeps only 16 bytes inline in libstdc++, so almost every
// event callback in the fabric path (a hop capture, an arrival continuation)
// paid one heap allocation when it was scheduled.  UniqueFunction stores a
// callable of up to kCapacity bytes in place and falls back to the heap only
// for larger captures (or callables whose move can throw).  It is move-only,
// so captures may own resources (std::unique_ptr) that std::function cannot
// hold.  C++20 has no std::move_only_function; this is the subset the
// engine needs.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tfsim::sim {

template <class Signature>
class UniqueFunction;

template <class R, class... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline capture capacity.  Large enough for a hop event ({network,
  /// engine, next node, frame pointer}) and for typical continuations that
  /// hold a std::function plus a few ids; small enough that moving one
  /// through the post -> outbox -> calendar slot path stays cheap.
  static constexpr std::size_t kCapacity = 64;

  UniqueFunction() noexcept = default;

  template <class F,
            class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, UniqueFunction> &&
                                     std::is_invocable_r_v<R, Fn&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { take(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Precondition: non-empty.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True when a callable of type F would be stored without allocating.
  template <class F>
  static constexpr bool stores_inline() {
    return kInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <class Fn>
  static constexpr bool kInline =
      sizeof(Fn) <= kCapacity && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <class Fn>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*static_cast<Fn*>(buf))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* buf) noexcept { static_cast<Fn*>(buf)->~Fn(); },
  };

  template <class Fn>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args&&... args) -> R {
        return (**static_cast<Fn**>(buf))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* buf) noexcept { delete *static_cast<Fn**>(buf); },
  };

  void take(UniqueFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.buf_, buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(buf_);
  }

  // Pointer alignment keeps the object at 72 bytes (16-byte alignment
  // would pad it to 80); over-aligned captures take the heap path.
  alignas(void*) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace tfsim::sim
