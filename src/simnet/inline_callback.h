// Small-buffer-optimised move-only callables for the simnet hot paths.
//
// Every simnet event used to carry a std::function<void()>, and the common
// timer lambdas (DNS timeout, TCP retransmit, HE connection-attempt delay)
// capture a handful of pointers — small enough that the type-erased callable
// can live inline in the heap node instead of in a fresh heap allocation per
// scheduled event. InlineFunction<Sig> stores any callable up to
// kInlineBytes (and nothrow-movable) in place; larger callables fall back to
// a single heap allocation, so no caller ever has to care about capture
// size. The event loop stores InlineFunction<void()> callbacks; Host
// packet dispatch uses InlineFunction<void(const Packet&)> for its flat
// handler tables.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace lazyeye::simnet {

template <typename Signature>
class InlineFunction;  // only the R(Args...) specialisation exists

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Captures up to this many bytes stay in the node itself. Sized for the
  /// scheduling/dispatch call sites (this + a few pointers/ids with room to
  /// spare); oversized closures take the heap path transparently.
  static constexpr std::size_t kInlineBytes = 64;

  InlineFunction() noexcept = default;

  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineModel<Fn>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapModel<Fn>::ops;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    // Same defined failure mode as the std::function this type replaced.
    if (ops_ == nullptr) throw std::bad_function_call{};
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// True when the stored callable lives in the inline buffer (no heap
  /// allocation was made for it). Observability for tests and benches.
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->stored_inline;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
    bool stored_inline;
  };

  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  struct InlineModel {
    static Fn* at(void* s) { return std::launder(reinterpret_cast<Fn*>(s)); }
    static R invoke(void* s, Args&&... args) {
      return (*at(s))(std::forward<Args>(args)...);
    }
    static void relocate(void* from, void* to) noexcept {
      Fn* f = at(from);
      ::new (to) Fn(std::move(*f));
      f->~Fn();
    }
    static void destroy(void* s) noexcept { at(s)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, true};
  };

  template <typename Fn>
  struct HeapModel {
    static Fn** at(void* s) { return std::launder(reinterpret_cast<Fn**>(s)); }
    static R invoke(void* s, Args&&... args) {
      return (**at(s))(std::forward<Args>(args)...);
    }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) Fn*(*at(from));
    }
    static void destroy(void* s) noexcept { delete *at(s); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lazyeye::simnet
