/**
 * @file
 * Synchronization primitives for simulation processes.
 *
 * These are simulation-domain primitives (not thread-safe; the simulator
 * is single-threaded). They follow the SimPy model: processes suspend on
 * awaitables and are resumed by events scheduled at the current simulated
 * time, so wakeups are ordered deterministically with everything else.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <algorithm>
#include <coroutine>
#include <optional>
#include <utility>
#include <vector>

#include "sim/fifo_ring.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace wave::sim {

/**
 * A condition-variable-like signal.
 *
 * Wait() suspends the caller until a subsequent NotifyOne()/NotifyAll().
 * Notifications are not sticky: a notify with no waiters is a no-op.
 * Waiters are resumed in FIFO order via scheduled events at Now().
 */
class Signal {
  public:
    explicit Signal(Simulator& sim) : sim_(sim) {}

    Signal(const Signal&) = delete;
    Signal& operator=(const Signal&) = delete;

    /** Awaitable: suspends until notified. */
    auto
    Wait()
    {
        struct Awaiter {
            Signal& signal;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                signal.waiters_.PushBack(h);
            }

            void await_resume() const {}
        };
        return Awaiter{*this};
    }

    /** Resumes the oldest waiter, if any. */
    void
    NotifyOne()
    {
        if (waiters_.Empty()) return;
        auto h = waiters_.PopFront();
        sim_.ScheduleResume(0, h);
    }

    /** Resumes every currently-registered waiter. */
    void
    NotifyAll()
    {
        while (!waiters_.Empty()) {
            NotifyOne();
        }
    }

    /** Number of processes currently blocked in Wait(). */
    std::size_t WaiterCount() const { return waiters_.Size(); }

  private:
    Simulator& sim_;
    FifoRing<std::coroutine_handle<>> waiters_;
};

/**
 * An unbounded FIFO channel between simulation processes.
 *
 * Push() never blocks; Receive() suspends until an item is available.
 * Multiple concurrent receivers are supported; items are handed out in
 * FIFO order across wakeups.
 */
template <typename T>
class Channel {
  public:
    explicit Channel(Simulator& sim) : sim_(sim), signal_(sim) {}

    /** Enqueues an item and wakes one waiting receiver. */
    void
    Push(T item)
    {
        items_.PushBack(std::move(item));
        signal_.NotifyOne();
    }

    /**
     * Bulk enqueue: moves every element of @p items into the channel
     * (clearing it) and wakes one waiting receiver per item, paying
     * the ring-growth and wakeup bookkeeping once for the whole batch.
     * This is the API W106 points hot loops at.
     */
    void
    PushBatch(std::vector<T>& items)
    {
        items_.Reserve(items_.Size() + items.size());
        const std::size_t wake =
            std::min(signal_.WaiterCount(), items.size());
        for (T& item : items) {
            items_.PushBack(std::move(item));
        }
        items.clear();
        for (std::size_t i = 0; i < wake; ++i) {
            signal_.NotifyOne();
        }
    }

    /** Pre-sizes the item ring so pushes up to @p n never allocate. */
    void Reserve(std::size_t n) { items_.Reserve(n); }

    /** Suspends until an item is available, then dequeues it. */
    Task<T>
    Receive()
    {
        while (items_.Empty()) {
            co_await signal_.Wait();
        }
        co_return items_.PopFront();
    }

    /** Non-blocking receive; empty optional if no item is queued. */
    std::optional<T>
    TryReceive()
    {
        if (items_.Empty()) return std::nullopt;
        return items_.PopFront();
    }

    /**
     * Bulk non-blocking receive: appends up to @p max queued items to
     * @p out and returns how many were moved. The one reserve() covers
     * the whole drain, so a polling loop dequeues allocation-free.
     */
    std::size_t
    TryReceiveBatch(std::vector<T>& out, std::size_t max)
    {
        const std::size_t n = std::min(max, items_.Size());
        out.reserve(out.size() + n);
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(items_.PopFront());
        }
        return n;
    }

    std::size_t Size() const { return items_.Size(); }
    bool Empty() const { return items_.Empty(); }

  private:
    Simulator& sim_;
    Signal signal_;
    FifoRing<T> items_;
};

/**
 * A counted resource (capacity-N semaphore).
 *
 * Models contended hardware such as a DMA engine with a fixed number of
 * in-flight transactions or a serialized link.
 */
class Resource {
  public:
    Resource(Simulator& sim, std::size_t capacity)
        : signal_(sim), capacity_(capacity)
    {
    }

    /** Suspends until a unit is available, then holds it. */
    Task<>
    Acquire()
    {
        while (in_use_ >= capacity_) {
            co_await signal_.Wait();
        }
        ++in_use_;
    }

    /** Returns a held unit and wakes one waiter. */
    void
    Release()
    {
        WAVE_ASSERT(in_use_ > 0, "Release without Acquire");
        --in_use_;
        signal_.NotifyOne();
    }

  private:
    Signal signal_;
    std::size_t capacity_;
    std::size_t in_use_ = 0;
};

/**
 * Runs @p tasks concurrently and completes when all of them finish.
 *
 * The tasks are spawned as detached processes; the returned task suspends
 * until the last one completes.
 */
Task<> AwaitAll(Simulator& sim, std::vector<Task<>>&& tasks);

}  // namespace wave::sim
