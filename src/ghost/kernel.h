/**
 * @file
 * The ghOSt kernel scheduling class (host side of Figure 2).
 *
 * The kernel owns thread state (the source of truth, §6), sends thread
 * lifecycle messages to the agent, enforces agent decisions with atomic
 * commits, and context-switches worker threads on its cores. It is
 * identical across deployments; only the SchedTransport differs between
 * on-host ghOSt and Wave offload.
 *
 * Per-core loop (matching the decision lifetime in Figure 2):
 *
 *   1. handle any pending interrupt (kick: flush + read decisions;
 *      tick: pay the tick cost),
 *   2. if idle, poll for a (possibly prestaged) decision; if none,
 *      halt until an interrupt,
 *   3. validate the decision transaction against live thread state —
 *      commit atomically or fail it cleanly — and report the outcome,
 *   4. context switch and run the thread until it stops,
 *   5. prefetch the next decision, then update state and send the
 *      thread-event message (the §5.4 overlap), and repeat.
 */
// wave-domain: host
#pragma once

#include <memory>
#include <vector>

#include "ghost/costs.h"
#include "ghost/interrupt.h"
#include "ghost/messages.h"
#include "ghost/thread.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace wave::check {
class ProtocolChecker;
}

namespace wave::sim::inject {
class FaultInjector;
}

namespace wave::ghost {

/** Behaviour switches for the kernel loops. */
struct KernelOptions {
    /** Prefetch the next decision before sending messages (§5.4). */
    bool prefetch_decisions = true;

    /** Deliver 1 ms timer ticks to every core (Figure 5 baseline). */
    bool timer_ticks = false;

    /**
     * Idle cores spin-poll the decision queue instead of halting for
     * an MSI-X ("the host will instead poll the queue to sustain high
     * RPC throughput", §4.3; "disabling interrupts" under load, §5.1).
     * Each poll pays the flush + line fetch, but wakeups skip the
     * interrupt path entirely.
     */
    bool poll_idle = false;
};

/** Aggregate kernel-side statistics. */
struct KernelStats {
    stats::Histogram ctx_switch_overhead;  ///< block -> next-run latency
    std::uint64_t commits_ok = 0;
    std::uint64_t commits_failed = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t ticks_handled = 0;
    std::uint64_t prestage_hits = 0;   ///< decision ready at block time
    std::uint64_t idle_waits = 0;      ///< had to halt for an MSI-X/IPI
    std::uint64_t idle_polls = 0;      ///< empty polls in poll_idle mode
};

/** The host kernel's ghOSt scheduling class. */
class KernelSched {
  public:
    KernelSched(sim::Simulator& sim, machine::Machine& machine,
                SchedTransport& transport, GhostCosts costs = {},
                KernelOptions options = {});

    /**
     * Registers a new ghOSt thread (runnable) and notifies the agent.
     * Safe to call before or after Start().
     */
    void AddThread(Tid tid, std::shared_ptr<ThreadBody> body);

    /**
     * Wakes a blocked thread (e.g. a request arrived for a worker) and
     * notifies the agent. No-op unless the thread is blocked.
     */
    void WakeThread(Tid tid);

    /**
     * Re-announces every runnable thread to the agent (a wakeup message
     * without a state change). This is the recovery path of
     * §3.3/§6: after the watchdog kills a wedged agent and a fresh
     * agent (restart or on-host fallback) attaches, the kernel replays
     * its runnable set so no thread is stranded in the dead agent's
     * private run queue.
     */
    void ReannounceAll();

    /** Starts the per-core kernel loops on the given host cores. */
    void Start(const std::vector<int>& cores);

    /** Stops the loops (at their next decision boundary). */
    void Stop() { running_ = false; }

    ThreadTable& Threads() { return threads_; }
    KernelStats& Stats() { return stats_; }

    /**
     * Attaches the protocol verifier. The kernel reports every thread
     * state transition (it is the source of truth, §6) plus each
     * commit resolution, letting the checker catch commits that land
     * against a stale view or claim a running thread twice.
     */
    void AttachProtocol(check::ProtocolChecker* protocol)
    {
        protocol_ = protocol;
    }

    /**
     * Attaches the fault injector. During a commit-fail-burst window
     * the kernel rejects every run-decision commit with
     * TxnStatus::kFailedRejected — host state untouched, outcome
     * reported — exercising the agent's repair/requeue path without
     * inventing an illegal state transition.
     */
    void SetFaultInjector(sim::inject::FaultInjector* injector)
    {
        injector_ = injector;
    }

  private:
    sim::Task<> CoreLoop(int core);
    sim::Task<> TickLoop(int core);

    /** Sends a thread-event message, paying kernel prep costs. */
    sim::Task<> SendEvent(MsgType type, Tid tid, int core);

    /**
     * Validates + commits a decision; returns the thread to run, or
     * nullptr if the transaction failed / asked for idle.
     */
    sim::Task<ThreadRecord*> CommitDecision(int core,
                                            const PendingDecision& pd);

    sim::Simulator& sim_;
    machine::Machine& machine_;
    SchedTransport& transport_;
    GhostCosts costs_;
    KernelOptions options_;
    ThreadTable threads_;
    KernelStats stats_;
    bool running_ = false;
    check::ProtocolChecker* protocol_ = nullptr;
    sim::inject::FaultInjector* injector_ = nullptr;
};

}  // namespace wave::ghost
