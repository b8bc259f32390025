/**
 * @file
 * The scheduling agent: a polling loop that drives a SchedPolicy over a
 * SchedTransport (§3.1 step 3-5 of the decision lifetime).
 *
 * The same GhostAgent runs on a SmartNIC core (WaveSchedTransport) or a
 * dedicated host core (ShmSchedTransport). Each iteration it:
 *
 *   1. drains thread-event messages and updates its core model,
 *   2. drains transaction outcomes (repairing its model and requeueing
 *      threads whose commits failed),
 *   3. issues *reactive* decisions (with a kick) for cores that went
 *      idle,
 *   4. *prestages* decisions (no kick) for busy cores when the run
 *      queue is deep enough (§5.4),
 *   5. issues preemption decisions (with a kick) when the policy's
 *      time slice expires (Shinjuku),
 *
 * then runs the optional aux stage and pays its loop overhead.
 *
 * One Run() frame carries the whole pass, and it suspends only where
 * simulated time passes: the message poll (one flag read when the queue
 * is empty, plus a payload read per message), the per-message and
 * per-decision compute, a commit or kick, the outcome poll (one flag
 * read per core, plus a payload read per outcome), the aux stage and the
 * loop overhead. Updating the core model, handling outcomes and asking
 * the policy never suspend, so an idle pass over either binding builds
 * two coroutine frames, the two polls', whatever the core count (an aux
 * stage with work to do adds its own). Each core's outcomes are handled
 * as soon as that core's poll finishes (OutcomeSink), before the next
 * core is polled.
 */
// wave-domain: host
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ghost/policy.h"
#include "ghost/transport.h"
#include "stats/histogram.h"
#include "wave/runtime.h"

namespace wave::ghost {

/** Agent loop configuration. */
struct AgentConfig {
    /** Host cores this agent schedules. */
    std::vector<int> cores;

    /** Enable prestaging (§5.4). */
    bool prestage = true;

    /**
     * Kick the host (MSI-X/IPI) when committing reactive decisions.
     * Disable when the host runs its idle loop in polling mode
     * (KernelOptions::poll_idle) — preemption decisions always kick.
     */
    bool use_kicks = true;

    /**
     * Minimum run-queue depth before prestaging. Prestaging with a
     * shallow queue risks parking the only runnable thread behind a
     * long-running core while another core idles; the paper prestages
     * eagerly when the queue is "sufficiently deep (e.g., linear in
     * the number of cores)".
     */
    std::size_t prestage_min_depth = 8;

    /**
     * Optional co-located stage run once per agent iteration on the
     * agent's CPU. The offloaded RPC stack plugs its packet-steering
     * stage in here (§7.3: co-locating the RPC steering policy with
     * the scheduler on the SmartNIC), and the offload datapath plugs
     * in a bounded pipeline slice (offload/pipeline.h). A pass with
     * nothing for the stage to do may return an empty task, which the
     * agent skips.
     */
    std::function<sim::Task<>(AgentContext&)> aux_stage;

    /**
     * Window for the iteration-latency histogram. With the default
     * empty window every iteration is recorded; the contention sweeps
     * restrict it to their measure window so warmup start-up passes
     * do not dilute the tail.
     */
    sim::TimeNs iter_window_begin{};
    sim::TimeNs iter_window_end{};
};

/** Per-agent statistics. */
struct AgentStats {
    std::uint64_t iterations = 0;  ///< agent loop passes (liveness)
    std::uint64_t messages = 0;
    std::uint64_t decisions = 0;
    std::uint64_t prestages = 0;
    std::uint64_t preempt_decisions = 0;
    std::uint64_t failed_commits = 0;
    std::uint64_t kicks = 0;
};

/** The scheduling agent (runs as a Wave agent or host process). */
class GhostAgent : public Agent {
  public:
    GhostAgent(SchedTransport& transport,
               std::shared_ptr<SchedPolicy> policy, AgentConfig config);

    sim::Task<> Run(AgentContext& ctx) override;

    const AgentStats& Stats() const { return stats_; }

    /**
     * Wall-to-wall duration of each agent loop pass (messages,
     * outcomes, decisions, aux stage, overhead) — the agent's
     * responsiveness metric under NIC-core contention. Restricted to
     * AgentConfig::iter_window_* when set.
     */
    const stats::Histogram& IterationLatency() const
    {
        return iter_latency_;
    }

  private:
    /** What the agent believes about one host core. */
    struct CoreModel {
        Tid running = kNoThread;
        sim::TimeNs running_since{};
        bool needs_decision = false;  ///< host is (or will be) idle
        bool preempt_inflight = false;

        struct Inflight {
            api::TxnId txn_id;
            GhostDecision decision;
            sim::TimeNs committed_at;
        };
        std::deque<Inflight> inflight;

        /**
         * Reactive (immediately-adopted) commits in flight, by txn id.
         * In ghOSt the agent owns the txn structure, so it always knows
         * which thread a failed commit was for; without this record a
         * rejection whose thread is still runnable (host-side rejects,
         * kFailedRejected) would drop the thread from the run queue
         * forever. Txn ids are numbered per core, so the record is too.
         */
        std::unordered_map<api::TxnId, GhostDecision> reactive;
    };

    /** Hands each core's drained outcomes to HandleOutcomes(). */
    class OutcomeHandler final : public OutcomeSink {
      public:
        OutcomeHandler(GhostAgent& agent, sim::Simulator& sim)
            : agent_(agent), sim_(sim)
        {
        }

        void
        OnOutcomes(int core,
                   std::span<const api::TxnOutcome> outcomes) override
        {
            agent_.HandleOutcomes(core, outcomes, sim_.Now());
        }

      private:
        GhostAgent& agent_;
        sim::Simulator& sim_;
    };

    /**
     * Updates the core model for @p message before the policy sees it.
     * Returns true when a prestaged decision was adopted whose commit
     * raced past the block, which needs a safety kick.
     */
    bool UpdateModel(const GhostMessage& message, sim::TimeNs now);

    /** Repairs @p core's model from its drained @p outcomes. */
    void HandleOutcomes(int core,
                        std::span<const api::TxnOutcome> outcomes,
                        sim::TimeNs now);

    CoreModel& Model(int core)
    {
        return cores_[static_cast<std::size_t>(core)];
    }

    SchedTransport& transport_;
    std::shared_ptr<SchedPolicy> policy_;
    AgentConfig config_;
    AgentStats stats_;
    stats::Histogram iter_latency_;
    std::vector<CoreModel> cores_;  ///< indexed by host core id
};

}  // namespace wave::ghost
