/**
 * @file
 * Virtual-machine scheduling policy (§7.2.4), inspired by Tableau.
 *
 * vCPU threads are pinned to logical cores (each core multiplexes one
 * vCPU from each of the co-located VMs). A vCPU runs for a quantum of
 * 5-10 ms with fair sharing between the VMs on the core; preemption is
 * agent-driven at millisecond granularity. Because the policy is a
 * single polling instance (on the SmartNIC or a host core), per-core
 * timer ticks can be disabled — idle cores reach deep C-states and the
 * busy cores turbo higher, which Figure 5 measures.
 *
 * It is the FIFO run-queue core (sched/fifo.h) with one queue per core
 * and the quantum as its slice.
 */
// wave-domain: neutral
#pragma once

#include <map>

#include "sched/fifo.h"

namespace wave::sched {

/** Pinned, quantum-based fair VM scheduler. */
class VmPolicy : public FifoPolicy {
  public:
    explicit VmPolicy(sim::DurationNs quantum_ns = 5'000'000)
        : FifoPolicy(quantum_ns, 0)
    {
    }

    std::string Name() const override { return "vm-tableau"; }

    /** Pins a vCPU thread to a logical core. */
    void PinVcpu(ghost::Tid tid, int core);

    /** A core runs only the vCPUs pinned to it. */
    std::optional<ghost::GhostDecision>
    PickNext(int core, sim::TimeNs /*now*/) override
    {
        const auto q = static_cast<std::size_t>(core);
        return q < queues_.size() ? PickFrom(q, core) : std::nullopt;
    }

    /** Past its quantum, a vCPU yields only to a waiter on its core. */
    bool
    ShouldPreempt(int core, ghost::Tid /*running*/,
                  sim::DurationNs ran_for) const override
    {
        const auto q = static_cast<std::size_t>(core);
        return ran_for > slice_ns_ && q < queues_.size() && !queues_[q].empty();
    }

    /** VM decisions are ms-scale; policy compute is still cheap. */
    sim::DurationNs DecisionComputeNs() const override { return 400; }

  protected:
    /** A vCPU queues on the core it is pinned to. */
    std::size_t QueueOf(ghost::Tid tid) const override;

  private:
    std::map<ghost::Tid, int> core_of_;
};

}  // namespace wave::sched
