/**
 * @file
 * Small-buffer type-erased callable for the event loop hot path.
 *
 * Every scheduled event carries a closure. std::function heap-allocates
 * once its capture exceeds the implementation's tiny inline buffer, which
 * puts one malloc/free pair on the critical path of *every* simulated
 * event. InlineFn is the narrow replacement the simulator needs: move-only
 * `void()` with 48 bytes of inline storage — enough for every closure the
 * model schedules (the largest today is a this-pointer plus a copied
 * byte-span descriptor at 40 bytes) — so steady-state event dispatch
 * performs zero heap allocations. Oversized captures still work via a
 * heap fallback so the type never silently truncates; they just lose the
 * no-alloc guarantee, which wave_analyze's W101 and the AllocGuard tests
 * exist to catch.
 *
 * Each relocation is an indirect call, so a scheduled closure relocates
 * once: the Schedule* calls take the InlineFn by rvalue reference down
 * to the timing wheel, which moves it into its event node; the
 * simulator invokes it there and destroys it when the node is recycled.
 * Coroutine resumes bypass InlineFn altogether (EventNode::resume).
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wave::sim {

/** Move-only `void()` callable with 48 bytes of inline storage. */
class InlineFn {
  public:
    /** Inline capture budget; sized for the largest model closure. */
    static constexpr std::size_t kInlineSize = 48;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    InlineFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    InlineFn(F&& fn)  // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= kInlineAlign &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            // Oversized or throwing-move captures fall back to the heap;
            // rare and setup-time only (W101 flags hot-path offenders).
            // wave-analyze: allow(W101 heap fallback for oversized captures; hot closures fit inline)
            *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(fn));
            ops_ = &kHeapOps<Fn>;
        }
    }

    InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }

    InlineFn&
    operator=(InlineFn&& other) noexcept
    {
        if (this != &other) {
            Reset();
            MoveFrom(other);
        }
        return *this;
    }

    InlineFn(const InlineFn&) = delete;
    InlineFn& operator=(const InlineFn&) = delete;

    ~InlineFn() { Reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    void operator()() { ops_->invoke(storage_); }

  private:
    struct Ops {
        void (*invoke)(unsigned char* storage);
        /** Move-construct dst's payload from src's, destroying src's. */
        void (*relocate)(unsigned char* dst, unsigned char* src) noexcept;
        void (*destroy)(unsigned char* storage) noexcept;
    };

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](unsigned char* s) { (*reinterpret_cast<Fn*>(s))(); },
        [](unsigned char* dst, unsigned char* src) noexcept {
            ::new (static_cast<void*>(dst))
                Fn(std::move(*reinterpret_cast<Fn*>(src)));
            reinterpret_cast<Fn*>(src)->~Fn();
        },
        [](unsigned char* s) noexcept { reinterpret_cast<Fn*>(s)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](unsigned char* s) { (**reinterpret_cast<Fn**>(s))(); },
        [](unsigned char* dst, unsigned char* src) noexcept {
            *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
        },
        [](unsigned char* s) noexcept { delete *reinterpret_cast<Fn**>(s); },
    };

    void
    MoveFrom(InlineFn& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    void
    Reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(kInlineAlign) unsigned char storage_[kInlineSize];
    const Ops* ops_ = nullptr;
};

}  // namespace wave::sim
