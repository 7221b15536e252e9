// Fixed-capacity callable wrapper: std::function semantics without the
// heap.
//
// The simulator's hot path schedules millions of short-lived callbacks
// whose captures ([this, transfer, bytes] and friends) run to 24-40 bytes —
// past libstdc++'s 16-byte small-object buffer, so std::function heap-
// allocates on every Schedule. TrivialInplaceFunction stores the callable
// inline in a caller-sized buffer and refuses (at compile time) anything
// that doesn't fit, making "this callback never allocates" a static
// guarantee the zero-allocation Execute contract (docs/simulation_model.md)
// can lean on.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace resccl {

// Accepts only callables that are themselves trivially copyable and
// destructible — which the simulator's hot-path captures ([this, index] and
// friends) all are. That keeps the *move/destroy* path cheap, not just the
// call: copy assignment is a raw byte copy the optimizer folds, and there
// is no manager dispatch — recycling a pooled callback costs zero indirect
// calls. The event queue moves callbacks ~2x more often than it invokes
// them, so this is what keeps the per-event constant down.
//
// Moving *copies* (the source stays engaged), exactly like moving an int.
// Don't branch on a moved-from TrivialInplaceFunction expecting it to be
// empty.
template <typename Signature, std::size_t Capacity = 48>
class TrivialInplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class TrivialInplaceFunction<R(Args...), Capacity> {
 public:
  TrivialInplaceFunction() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  TrivialInplaceFunction(std::nullptr_t) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TrivialInplaceFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  // NOLINTNEXTLINE(google-explicit-constructor)
  TrivialInplaceFunction(F&& f) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= Capacity,
                  "callable exceeds TrivialInplaceFunction capacity");
    static_assert(alignof(D) <= alignof(std::max_align_t));
    static_assert(std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>,
                  "TrivialInplaceFunction requires a trivially copyable, "
                  "trivially destructible callable (capture values and "
                  "references, not owning objects)");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = &InvokeImpl<D>;
  }

  TrivialInplaceFunction& operator=(std::nullptr_t) {
    invoke_ = nullptr;
    return *this;
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    RESCCL_CHECK_MSG(invoke_ != nullptr,
                     "empty TrivialInplaceFunction invoked");
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  using Invoke = R (*)(void*, Args...);

  template <typename F>
  static R InvokeImpl(void* s, Args... args) {
    return (*static_cast<F*>(s))(std::forward<Args>(args)...);
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  Invoke invoke_ = nullptr;
};

}  // namespace resccl
