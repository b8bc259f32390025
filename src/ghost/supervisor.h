/**
 * @file
 * Watchdog-driven agent supervision and host fallback (§3.3).
 *
 * The paper's recovery story: every offloaded agent has an on-host
 * watchdog; when the agent stops making progress the watchdog kills it
 * and the subsystem "falls back to on-host system software" — for the
 * thread scheduler, scheduling through the kernel's own class (CFS).
 * Recovery is simple because the kernel never stopped being the source
 * of truth (§6): the fallback just re-pulls the runnable set.
 *
 * AgentSupervisor packages that loop for simulations and tests:
 *
 *   1. a feed task samples the supervised agent's iteration counter
 *      every check interval and feeds the Watchdog while the counter
 *      advances,
 *   2. on expiry it issues KILL_WAVE_AGENT, starts a caller-supplied
 *      fallback GhostAgent on a host core over the same transport, and
 *   3. calls KernelSched::ReannounceAll() so every runnable thread
 *      stranded in the dead agent's run queue reaches the fallback.
 */
// wave-domain: host
#pragma once

#include <functional>
#include <memory>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "machine/cpu.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "wave/watchdog.h"

namespace wave::ghost {

/** What the supervisor has done so far. */
struct SupervisorStats {
    std::uint64_t expiries = 0;
    bool fallback_active = false;
    sim::TimeNs fallback_at{};
};

/** Supervises one Wave agent; falls back to a host agent on expiry. */
class AgentSupervisor {
  public:
    /**
     * @p timeout is the liveness-staleness threshold before the kill
     * (§3.3: 20 ms); the watchdog polls, and the feed task samples the
     * agent's iteration counter, every @p check_interval.
     */
    AgentSupervisor(sim::Simulator& sim, WaveRuntime& runtime,
                    KernelSched& kernel, sim::DurationNs timeout,
                    sim::DurationNs check_interval);
    ~AgentSupervisor();

    /**
     * Starts supervising @p agent (already running as Wave agent
     * @p id). On watchdog expiry the supervisor kills it, runs
     * @p fallback_factory to build the host-side replacement agent
     * (same transport, typically a CFS-class policy), spawns it on
     * @p fallback_cpu, and replays the kernel's runnable set.
     */
    void Supervise(AgentId id, std::shared_ptr<GhostAgent> agent,
                   std::function<std::shared_ptr<GhostAgent>()>
                       fallback_factory,
                   machine::Cpu& fallback_cpu);

    const SupervisorStats& Stats() const { return stats_; }

  private:
    sim::Task<> FeedLoop();
    void OnExpire();

    sim::Simulator& sim_;
    WaveRuntime& runtime_;
    KernelSched& kernel_;
    sim::DurationNs timeout_;
    sim::DurationNs check_interval_;
    SupervisorStats stats_;

    AgentId agent_id_ = 0;
    std::shared_ptr<GhostAgent> agent_;
    std::function<std::shared_ptr<GhostAgent>()> fallback_factory_;
    machine::Cpu* fallback_cpu_ = nullptr;

    std::unique_ptr<Watchdog> dog_;
    std::shared_ptr<GhostAgent> fallback_;
    std::unique_ptr<AgentContext> fallback_ctx_;
};

}  // namespace wave::ghost
