/**
 * @file
 * Shinjuku policies: preemptive round-robin scheduling for µs-scale
 * tail latency (§7.2.3, §7.3).
 *
 * Single-queue Shinjuku maintains one FIFO run queue but preempts any
 * thread that exceeds its time slice (default 30 µs), so short requests
 * never wait behind long ones. Preemption rides the agent's kick
 * (MSI-X from the SmartNIC / IPI on host) — the experiment that shows
 * MSI-X is a workable substitute for IPIs.
 *
 * Multi-queue Shinjuku (§7.3.2) additionally separates threads by the
 * SLO class of the request they are handling (carried in the RPC
 * payload) and serves stricter classes first, which requires the
 * scheduler to *know* the SLO — only possible when the RPC stack shares
 * its insight, i.e. when both are co-located.
 */
// wave-domain: neutral
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sched/fifo.h"
#include "sim/time.h"

namespace wave::sched {

/** Single-queue Shinjuku: FIFO + time-slice preemption. */
class ShinjukuPolicy : public FifoPolicy {
  public:
    explicit ShinjukuPolicy(sim::DurationNs slice_ns = 30'000)
        : slice_ns_(slice_ns)
    {
    }

    std::string Name() const override { return "shinjuku"; }

    std::optional<ghost::GhostDecision>
    PickNext(int core, sim::TimeNs now) override
    {
        auto decision = FifoPolicy::PickNext(core, now);
        if (decision) {
            decision->slice_ns = slice_ns_;
        }
        return decision;
    }

    bool
    ShouldPreempt(int /*core*/, ghost::Tid /*running*/,
                  sim::DurationNs ran_for) const override
    {
        // Preempt only when someone is waiting; otherwise let it run.
        return ran_for > slice_ns_ && !run_queue_.empty();
    }

  private:
    sim::DurationNs slice_ns_;
};

/** Multi-queue Shinjuku: per-SLO-class queues, strictest first. */
class MultiQueueShinjukuPolicy : public ghost::SchedPolicy {
  public:
    explicit MultiQueueShinjukuPolicy(sim::DurationNs slice_ns = 30'000,
                                      int num_classes = 2)
        : slice_ns_(slice_ns), queues_(static_cast<std::size_t>(num_classes))
    {
    }

    std::string Name() const override { return "multiqueue-shinjuku"; }

    /**
     * Tags a thread with the SLO class of the request it will serve
     * (class 0 is strictest). Called by the RPC stack when it steers a
     * request — the "network insight" the SmartNIC placement enables.
     */
    void SetThreadSlo(ghost::Tid tid, std::uint32_t slo_class);

    void OnMessage(const ghost::GhostMessage& message) override;
    std::optional<ghost::GhostDecision> PickNext(int core,
                                                 sim::TimeNs now) override;
    void OnDecisionFailed(const ghost::GhostDecision& decision) override;

    bool
    ShouldPreempt(int /*core*/, ghost::Tid running,
                  sim::DurationNs ran_for) const override;

    std::size_t RunQueueDepth() const override;

    /** Multi-queue bookkeeping costs a bit more per decision. */
    sim::DurationNs DecisionComputeNs() const override { return 220; }

  private:
    std::uint32_t ClassOf(ghost::Tid tid) const;
    void Enqueue(ghost::Tid tid, bool front = false);

    sim::DurationNs slice_ns_;
    std::vector<std::deque<ghost::Tid>> queues_;  ///< by SLO class
    std::map<ghost::Tid, std::uint32_t> slo_of_;
    std::unordered_set<ghost::Tid> queued_;
    std::unordered_set<ghost::Tid> dead_;
};

}  // namespace wave::sched
