/**
 * @file
 * Watchdog-driven agent supervision: the one recovery path (§3.3, §6).
 *
 * When an agent stops making progress its on-host watchdog kills it and
 * a successor takes over: a fresh agent (an enclave restart, §6) or
 * on-host system software (the §3.3 fallback to the kernel's own class).
 * Recovery is simple because the kernel never stopped being the source
 * of truth (§6): the successor just re-pulls the runnable set.
 *
 *   1. A feed task samples the supervised agent's iteration counter
 *      every check interval and feeds the Watchdog while it advances.
 *   2. On expiry, or on Replace(), the supervisor issues
 *      KILL_WAVE_AGENT and runs the owner's successor callback, which
 *      starts the successor in a WaveRuntime slot; a restart returns it
 *      to stay supervised, a fallback returns none.
 *   3. KernelSched::ReannounceAll() hands every runnable thread stranded
 *      in the dead agent's run queue to the successor.
 */
// wave-domain: host
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "wave/watchdog.h"

namespace wave::ghost {

/** A running agent: its runtime slot and the loop that shows progress. */
struct SupervisedAgent {
    AgentId id = 0;
    const GhostAgent* agent = nullptr;
};

/** What the supervisor has done so far. */
struct SupervisorStats {
    std::uint64_t expiries = 0;
    bool fallback_active = false;  ///< the successor runs unsupervised
    sim::TimeNs fallback_at{};
};

/** Supervises one agent at a time and replaces it when it stops. */
class AgentSupervisor {
  public:
    /** Starts a killed agent's successor; returns it to supervise it. */
    using Successor = std::function<std::optional<SupervisedAgent>()>;

    /**
     * @p timeout is the liveness-staleness threshold before the kill
     * (§3.3: 20 ms); the watchdog polls, and the feed task samples the
     * agent's iteration counter, every @p check_interval. A zero
     * @p timeout runs no watchdog: only Replace() replaces the agent.
     */
    AgentSupervisor(WaveRuntime& runtime, KernelSched& kernel,
                    sim::DurationNs timeout, sim::DurationNs check_interval,
                    Successor successor);
    ~AgentSupervisor();

    /** Arms the watchdog on @p agent, already running in its slot. */
    void Supervise(SupervisedAgent agent);

    /** Replaces the supervised agent now, as a watchdog expiry does. */
    void Replace();

    const SupervisorStats& Stats() const { return stats_; }

  private:
    sim::Task<> FeedLoop();

    WaveRuntime& runtime_;
    KernelSched& kernel_;
    sim::DurationNs check_interval_;
    Successor successor_;
    SupervisorStats stats_;

    SupervisedAgent watched_;
    std::uint64_t last_iterations_ = 0;
    bool feeding_ = false;          ///< the feed task is running
    std::unique_ptr<Watchdog> dog_;  ///< null when the timeout is zero
};

}  // namespace wave::ghost
