/**
 * @file
 * Threads as the kernel scheduling class sees them.
 *
 * A ghOSt-class thread has kernel-visible state (runnable / running /
 * blocked / dead) owned by the host kernel — the source of truth for
 * recovery (§6) — and a workload-defined body that executes when the
 * kernel context-switches to it. Bodies run until they block, yield,
 * exhaust a slice, or are preempted by an interrupt.
 */
// wave-domain: host
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "ghost/interrupt.h"
#include "ghost/messages.h"
#include "machine/cpu.h"
#include "sim/task.h"

namespace wave::ghost {

/** Kernel-visible thread state. */
enum class ThreadState {
    kRunnable,
    kRunning,
    kBlocked,
    kDead,
};

/** Why a thread's body returned control to the kernel. */
enum class RunStop : std::uint32_t {
    kBlocked,    ///< waiting on an event (e.g. next request)
    kYielded,    ///< voluntarily gave up the core
    kPreempted,  ///< interrupt arrived / slice expired
    kExited,     ///< thread is done forever
};

/** Execution context the kernel passes to a running thread body. */
struct RunContext {
    sim::Simulator& sim;
    machine::Cpu& cpu;
    CoreInterrupt& interrupt;

    /** Slice budget; 0 means run until the body stops on its own. */
    sim::DurationNs slice_ns;
};

/** Workload-defined thread behaviour. */
class ThreadBody {
  public:
    virtual ~ThreadBody() = default;

    /**
     * Runs the thread on a core until it stops. Implementations should
     * consume service time with ctx.interrupt.SleepInterruptible() so
     * preemption interrupts take effect at their arrival time, and must
     * respect ctx.slice_ns when it is non-zero.
     */
    virtual sim::Task<RunStop> Run(RunContext& ctx) = 0;
};

/** One thread's kernel record. */
struct ThreadRecord {
    Tid tid = kNoThread;
    ThreadState state = ThreadState::kRunnable;
    std::shared_ptr<ThreadBody> body;
    int last_core = -1;

    /**
     * A wakeup arrived while the thread was still running (e.g. its
     * next request was assigned before it finished blocking). The
     * kernel turns the subsequent block into an immediate re-enqueue,
     * like a real kernel's wake-while-running path.
     */
    bool wake_pending = false;
};

/** The kernel's thread table. */
class ThreadTable {
  public:
    /** Registers a new thread in the runnable state. */
    ThreadRecord&
    Add(Tid tid, std::shared_ptr<ThreadBody> body)
    {
        ThreadRecord rec;
        rec.tid = tid;
        rec.body = std::move(body);
        auto [it, inserted] = threads_.emplace(tid, std::move(rec));
        WAVE_ASSERT(inserted, "duplicate tid %d", tid);
        return it->second;
    }

    /** Looks up a thread; nullptr if it never existed. */
    ThreadRecord*
    Find(Tid tid)
    {
        auto it = threads_.find(tid);
        return it == threads_.end() ? nullptr : &it->second;
    }

    std::size_t Size() const { return threads_.size(); }

    std::map<Tid, ThreadRecord>& All() { return threads_; }

  private:
    std::map<Tid, ThreadRecord> threads_;
};

}  // namespace wave::ghost
