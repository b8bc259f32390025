/**
 * @file
 * Per-core interrupt controller for the simulated host kernel.
 *
 * Each host core owns a CoreInterrupt. Interrupt sources (MSI-X
 * delivery from a SmartNIC agent, IPIs from an on-host agent, timer
 * ticks) raise it; the core's kernel loop observes pending interrupts
 * between and *during* thread execution — SleepInterruptible is the
 * primitive that lets a running thread's service time be cut short at
 * the exact arrival time of a preemption interrupt.
 *
 * Kicks (agent decisions) and timer ticks are latched separately
 * because the kernel reacts differently: a kick means "flush and read
 * the decision queue"; a tick is pure overhead unless the policy uses
 * it (Figure 5 measures exactly this overhead).
 */
// wave-domain: host
#pragma once

#include <cstdint>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace wave::ghost {

/** Latched interrupt lines for one host core. */
class CoreInterrupt {
  public:
    explicit CoreInterrupt(sim::Simulator& sim) : sim_(sim), signal_(sim)
    {
    }

    /** Latches a decision kick (MSI-X / IPI) and wakes sleepers. */
    void
    Raise()
    {
        kick_pending_ = true;
        signal_.NotifyAll();
    }

    /** Latches a timer tick and wakes sleepers. */
    void
    RaiseTick()
    {
        tick_pending_ = true;
        signal_.NotifyAll();
    }

    bool Pending() const { return kick_pending_ || tick_pending_; }
    bool KickPending() const { return kick_pending_; }

    /** Clears the kick latch; returns whether it was set. */
    bool
    ConsumeKick()
    {
        const bool was = kick_pending_;
        kick_pending_ = false;
        return was;
    }

    /** Clears the tick latch; returns whether it was set. */
    bool
    ConsumeTick()
    {
        const bool was = tick_pending_;
        tick_pending_ = false;
        return was;
    }

    /**
     * Sleeps for up to @p max_ns, waking early if any interrupt is
     * raised. Returns the time actually slept. Does NOT consume the
     * latches — the kernel loop decides how to handle them.
     */
    sim::Task<sim::DurationNs>
    SleepInterruptible(sim::DurationNs max_ns)
    {
        const sim::TimeNs start = sim_.Now();
        const sim::TimeNs deadline = start + max_ns;
        sim_.Schedule(max_ns, [this] { signal_.NotifyAll(); });
        while (!Pending() && sim_.Now() < deadline) {
            co_await signal_.Wait();
        }
        co_return sim_.Now() - start;
    }

    /** Sleeps until an interrupt is raised (idle core in halt). */
    sim::Task<>
    WaitForInterrupt()
    {
        while (!Pending()) {
            co_await signal_.Wait();
        }
    }

  private:
    sim::Simulator& sim_;
    sim::Signal signal_;
    bool kick_pending_ = false;
    bool tick_pending_ = false;
};

}  // namespace wave::ghost
