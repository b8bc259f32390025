/**
 * @file
 * Coroutine task type for simulation processes.
 *
 * A Task<T> is a lazily-started coroutine that produces a value of type T
 * (or nothing, for Task<void>). Simulation processes are written as
 * ordinary coroutines over Task:
 *
 *     sim::Task<> WorkerLoop(sim::Simulator& sim, ...) {
 *         for (;;) {
 *             co_await sim.Delay(10_us);     // simulated time passes
 *             co_await SubStep(sim, ...);    // tasks compose
 *         }
 *     }
 *
 * Ownership: a Task owns its coroutine frame. Awaiting a task transfers
 * control into it and resumes the awaiter when it finishes (symmetric
 * transfer, so arbitrarily deep task chains do not grow the stack).
 * Destroying a Task destroys the frame, recursively tearing down any
 * nested tasks it is suspended inside — this is how the Simulator cleans
 * up processes that never finish (e.g. infinite server loops) at teardown.
 *
 * Every Task costs a frame, so hot paths keep them for work that really
 * composes several suspensions:
 *
 *   - An operation that suspends exactly once (a delay, one local memory
 *     access, one Cpu::Work) is an awaiter struct, like
 *     Simulator::Delay: await_suspend schedules the one event and
 *     await_resume does what follows it. No frame is built.
 *   - A pure wrapper, whose body would only be `co_return co_await
 *     inner(...)`, returns the inner task instead.
 *   - A bool-yielding awaiter is bound to a local before any branch
 *     tests it. GCC 12.2 miscompiles a plain struct awaiter co_awaited
 *     directly in an `if` condition (the loop around it stops running,
 *     or the resume jumps to an invalid state):
 *
 *         const bool ready = co_await consumer.Ready();
 *         if (!ready) co_return false;
 *
 *     A Task operand inside a condition is not affected.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.h"
#include "sim/logging.h"

namespace wave::sim {

template <typename T>
class Task;

namespace detail {

/** Final awaiter: resume whoever co_awaited us, or just suspend. */
struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

struct PromiseBase {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }

    /**
     * Coroutine frames recycle through the size-classed frame pool:
     * task-per-event models allocate frames at event rate, and the
     * pool makes that churn allocation-free after warmup.
     */
    static void* operator new(std::size_t bytes)
    {
        return AllocFrame(bytes);
    }

    static void operator delete(void* frame) noexcept
    {
        FreeFrame(frame);
    }
};

}  // namespace detail

/**
 * A lazily-started, single-owner coroutine returning T.
 *
 * @tparam T the result type; Task<> (void) for pure processes.
 */
template <typename T = void>
class [[nodiscard]] Task {
  public:
    struct promise_type : detail::PromiseBase {
        T value;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_value(T v) { value = std::move(v); }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(Task&& other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task&
    operator=(Task&& other) noexcept
    {
        if (this != &other) {
            Destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task() { Destroy(); }

    /** True once the coroutine has run to completion. */
    bool Done() const { return handle_ && handle_.done(); }

    /**
     * Releases ownership of the coroutine frame to the caller.
     * Used by Simulator::Spawn, which manages root-process lifetimes.
     */
    std::coroutine_handle<promise_type>
    Release()
    {
        return std::exchange(handle_, nullptr);
    }

    /** Awaiting a task starts it and suspends until it completes. */
    auto
    operator co_await() &&
    {
        struct Awaiter {
            std::coroutine_handle<promise_type> handle;

            bool await_ready() const { return !handle || handle.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> awaiting)
            {
                handle.promise().continuation = awaiting;
                return handle;  // symmetric transfer into the task
            }

            T
            await_resume()
            {
                WAVE_ASSERT(handle != nullptr);
                if (handle.promise().exception) {
                    std::rethrow_exception(handle.promise().exception);
                }
                return std::move(handle.promise().value);
            }
        };
        return Awaiter{handle_};
    }

  private:
    void
    Destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

/** Task<void> specialization: a process with no result. */
template <>
class [[nodiscard]] Task<void> {
  public:
    struct promise_type : detail::PromiseBase {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(Task&& other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Task&
    operator=(Task&& other) noexcept
    {
        if (this != &other) {
            Destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task() { Destroy(); }

    /**
     * False for an empty task (`{}` or moved-from), which has no frame;
     * awaiting one asserts, so test a task that may be empty first.
     */
    explicit operator bool() const { return handle_ != nullptr; }

    bool Done() const { return handle_ && handle_.done(); }

    std::coroutine_handle<promise_type>
    Release()
    {
        return std::exchange(handle_, nullptr);
    }

    auto
    operator co_await() &&
    {
        struct Awaiter {
            std::coroutine_handle<promise_type> handle;

            bool await_ready() const { return !handle || handle.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> awaiting)
            {
                handle.promise().continuation = awaiting;
                return handle;
            }

            void
            await_resume()
            {
                WAVE_ASSERT(handle != nullptr);
                if (handle.promise().exception) {
                    std::rethrow_exception(handle.promise().exception);
                }
            }
        };
        return Awaiter{handle_};
    }

  private:
    void
    Destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

}  // namespace wave::sim
