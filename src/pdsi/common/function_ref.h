// FunctionRef: a non-owning reference to a callable.
//
// The simulator's hottest callbacks run before the call that receives
// them returns: a scheduler admission runs its section under the lock,
// and a synchronous RPC runs its serve callback inside execute(). A
// std::function there copies the lambda's captures, and captures larger
// than its small buffer cost a heap allocation and a free per call.
// FunctionRef stores only the callable's address and one trampoline, so
// passing it allocates nothing. It must not outlive the callable it
// refers to: take it as a parameter, never store it.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace pdsi {

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  /// The empty reference: false in a boolean context, not callable.
  FunctionRef() = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace pdsi
