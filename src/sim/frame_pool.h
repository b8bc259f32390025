/**
 * @file
 * Size-classed free-list pool for coroutine frames.
 *
 * Every co_await of a sub-task allocates a coroutine frame, so a busy
 * model (one that factors work into helper tasks, as this one does)
 * allocates frames at event rate. The pool intercepts the promise-level
 * operator new/delete: frames recycle through per-size-class free lists
 * after the first allocation, making steady-state frame churn
 * allocation-free.
 *
 * Each thread has its own free lists and counters. A simulator and
 * every frame it creates live on one thread, so independent
 * deployments on separate threads (the saturation ladder's load
 * points) share nothing here and need no locking — wave_analyze's W103
 * enforces that none creeps into this layer.
 *
 * While a thread lives its blocks are never returned to the heap: a
 * long run reaches its high-water mark of simultaneously-live frames
 * per size class and stays there. When a thread exits, its pooled
 * blocks go back to the heap, so leak checkers see no blocks stranded
 * by a finished worker thread.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <cstddef>
#include <cstdint>

namespace wave::sim::detail {

/** Allocates a coroutine frame of @p bytes from the pool. */
void* AllocFrame(std::size_t bytes);

/** Returns a frame to its size-class free list (null is a no-op). */
void FreeFrame(void* frame) noexcept;

/** Frames this thread served from a free list (vs. fresh heap), for tests. */
std::uint64_t FramePoolReuses();

/** Frames this thread sent to the heap because of their size. */
std::uint64_t FramePoolOversized();

}  // namespace wave::sim::detail
