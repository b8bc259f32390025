/**
 * @file
 * The FIFO run-queue core, and the run-to-completion FIFO policy
 * (§7.2.2) built on it.
 *
 * The simplest ghOSt policy the paper ports: runnable threads queue in
 * arrival order and run until they block. It needs little compute but
 * interacts with the workload on every request, which is exactly why
 * the paper uses it to stress Wave's API and PCIe queues.
 *
 * Shinjuku, multi-queue Shinjuku (sched/shinjuku.h) and the VM policy
 * (sched/vm_policy.h) are this run queue with a slice and their own
 * queue key, so they derive from FifoPolicy and override only that.
 */
// wave-domain: neutral
#pragma once

#include <deque>
#include <unordered_set>
#include <vector>

#include "ghost/policy.h"

namespace wave::sched {

/**
 * FIFO run queues indexed by class, served strictest (lowest) class
 * first. Decisions carry the slice: zero runs to completion; otherwise a
 * thread past its slice is preempted whenever anything waits.
 */
class FifoPolicy : public ghost::SchedPolicy {
  public:
    FifoPolicy() : FifoPolicy(0, 1) {}

    std::string Name() const override { return "fifo"; }

    void OnMessage(const ghost::GhostMessage& message) override;
    std::optional<ghost::GhostDecision> PickNext(int core,
                                                 sim::TimeNs now) override;
    void OnDecisionFailed(const ghost::GhostDecision& decision) override;

    bool
    ShouldPreempt(int /*core*/, ghost::Tid /*running*/,
                  sim::DurationNs ran_for) const override
    {
        return slice_ns_ != 0 && ran_for > slice_ns_ && RunQueueDepth() > 0;
    }

    std::size_t
    RunQueueDepth() const override
    {
        std::size_t depth = 0;
        for (const auto& queue : queues_) depth += queue.size();
        return depth;
    }

  protected:
    FifoPolicy(sim::DurationNs slice_ns, std::size_t num_queues)
        : slice_ns_(slice_ns), queues_(num_queues)
    {
    }

    /** The queue @p tid waits in. */
    virtual std::size_t QueueOf(ghost::Tid /*tid*/) const { return 0; }

    /** Pops queue @p q's first live thread as a decision for @p core. */
    std::optional<ghost::GhostDecision> PickFrom(std::size_t q, int core);

    const sim::DurationNs slice_ns_;
    std::vector<std::deque<ghost::Tid>> queues_;

  private:
    /** Enqueues a thread unless it is already queued or dead. */
    void Enqueue(ghost::Tid tid, bool front);

    std::unordered_set<ghost::Tid> queued_;
    std::unordered_set<ghost::Tid> dead_;
};

}  // namespace wave::sched
