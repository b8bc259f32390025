/**
 * @file
 * Power-of-two ring buffer: the hot-path FIFO used by sync primitives.
 *
 * libstdc++'s std::deque allocates and frees 512-byte blocks as its
 * head and tail cross block boundaries, so even a steady-state
 * push/pop cycle — exactly the pattern of Signal waiter queues and
 * Channel item queues — keeps hitting the allocator. FifoRing stores
 * its elements in one contiguous power-of-two slab indexed by
 * monotonically increasing head/tail counters: steady-state push/pop
 * touches no allocator at all, and growth (doubling) only happens when
 * the live element count exceeds capacity, which Reserve() lets
 * callers pay once at setup time.
 *
 * Requirements on T: default-constructible and movable (slots are
 * default-constructed up front and assigned into). That covers the
 * coroutine handles, closures, and message payloads the simulator
 * queues; it is not a general-purpose container.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.h"

namespace wave::sim {

/** Contiguous grow-on-demand FIFO with allocation-free steady state. */
template <typename T>
class FifoRing {
  public:
    FifoRing() = default;

    explicit FifoRing(std::size_t initial_capacity)
    {
        Reserve(initial_capacity);
    }

    /** Ensures capacity for @p n elements without further allocation. */
    void
    Reserve(std::size_t n)
    {
        if (n > slots_.size()) Grow(RoundUpPow2(n));
    }

    bool Empty() const { return head_ == tail_; }
    std::size_t Size() const { return static_cast<std::size_t>(tail_ - head_); }

    void
    PushBack(T item)
    {
        if (Size() == slots_.size()) {
            Grow(slots_.empty() ? kInitialCapacity : slots_.size() * 2);
        }
        slots_[tail_ & mask_] = std::move(item);
        ++tail_;
    }

    T
    PopFront()
    {
        WAVE_ASSERT(!Empty(), "PopFront() on empty FifoRing");
        T item = std::move(slots_[head_ & mask_]);
        ++head_;
        return item;
    }

  private:
    static constexpr std::size_t kInitialCapacity = 16;

    static std::size_t
    RoundUpPow2(std::size_t n)
    {
        std::size_t p = kInitialCapacity;
        while (p < n) p *= 2;
        return p;
    }

    void
    Grow(std::size_t new_capacity)
    {
        // wave-analyze: allow(W101 growth path: runs only when live count first exceeds capacity, never in steady state)
        std::vector<T> next(new_capacity);
        const std::size_t count = Size();
        for (std::size_t i = 0; i < count; ++i) {
            next[i] = std::move(slots_[(head_ + i) & mask_]);
        }
        slots_ = std::move(next);
        mask_ = new_capacity - 1;
        head_ = 0;
        tail_ = count;
    }

    std::vector<T> slots_;
    std::uint64_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

}  // namespace wave::sim
