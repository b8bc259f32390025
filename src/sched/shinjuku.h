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

#include "sched/fifo.h"
#include "sim/logging.h"
#include "sim/time.h"

namespace wave::sched {

/** Single-queue Shinjuku: the FIFO run queue + time-slice preemption. */
class ShinjukuPolicy : public FifoPolicy {
  public:
    explicit ShinjukuPolicy(sim::DurationNs slice_ns = 30'000)
        : FifoPolicy(slice_ns, 1)
    {
    }

    std::string Name() const override { return "shinjuku"; }
};

/**
 * Multi-queue Shinjuku: per-SLO-class queues, strictest first. Past its
 * slice, even a strict thread yields to a lenient waiter (round robin).
 */
class MultiQueueShinjukuPolicy : public FifoPolicy {
  public:
    explicit MultiQueueShinjukuPolicy(sim::DurationNs slice_ns = 30'000,
                                      int num_classes = 2)
        : FifoPolicy(slice_ns, static_cast<std::size_t>(num_classes))
    {
    }

    std::string Name() const override { return "multiqueue-shinjuku"; }

    /**
     * Tags a thread with the SLO class of the request it will serve
     * (class 0 is strictest). Called by the RPC stack when it steers a
     * request — the "network insight" the SmartNIC placement enables.
     */
    void
    SetThreadSlo(ghost::Tid tid, std::uint32_t slo_class)
    {
        WAVE_ASSERT(slo_class < queues_.size(), "slo class %u out of range",
                    slo_class);
        slo_of_[tid] = slo_class;
    }

    void
    OnMessage(const ghost::GhostMessage& message) override
    {
        FifoPolicy::OnMessage(message);
        if (message.type == ghost::MsgType::kThreadDead) {
            slo_of_.erase(message.tid);
        }
    }

    /** Multi-queue bookkeeping costs a bit more per decision. */
    sim::DurationNs DecisionComputeNs() const override { return 220; }

  protected:
    /** A thread's SLO class; untagged threads are the most lenient. */
    std::size_t
    QueueOf(ghost::Tid tid) const override
    {
        auto it = slo_of_.find(tid);
        return it == slo_of_.end() ? queues_.size() - 1 : it->second;
    }

  private:
    std::map<ghost::Tid, std::uint32_t> slo_of_;
};

}  // namespace wave::sched
