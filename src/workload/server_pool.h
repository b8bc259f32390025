/**
 * @file
 * A generic pool of CPU-bound servers draining a job queue.
 *
 * Used for pipeline stages that are queueing systems in their own
 * right: the RPC stack's protocol-processing cores (§4.3), response
 * serialization, etc. Each worker CPU loops: take a job, execute its
 * cost on the CPU, run its completion.
 */
// wave-domain: host
#pragma once

#include <functional>
#include <vector>

#include "machine/cpu.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace wave::workload {

/** A unit of work for the pool. */
struct PoolJob {
    /** Compute cost at reference-core speed. */
    sim::DurationNs cost_ns = 0;

    /** Runs after the cost has been paid. */
    std::function<void()> done;
};

/** Fixed set of CPUs serving a FIFO job queue. */
class ServerPool {
  public:
    ServerPool(sim::Simulator& sim, std::vector<machine::Cpu*> cpus)
        : sim_(sim), cpus_(std::move(cpus)), jobs_(sim)
    {
        WAVE_ASSERT(!cpus_.empty(), "pool needs at least one CPU");
    }

    /** Starts the worker loops. */
    void
    Start()
    {
        for (machine::Cpu* cpu : cpus_) {
            sim_.Spawn(WorkerLoop(cpu));
        }
    }

    /** Enqueues a job. */
    void
    Submit(PoolJob job)
    {
        jobs_.Push(std::move(job));
    }

  private:
    // wave-lifetime(spawn-safe: only `this` is borrowed; the pool is owned by the service, which outlives the simulator run)
    sim::Task<>
    WorkerLoop(machine::Cpu* cpu)
    {
        for (;;) {
            PoolJob job = co_await jobs_.Receive();
            co_await cpu->Work(job.cost_ns);
            if (job.done) job.done();
        }
    }

    sim::Simulator& sim_;
    std::vector<machine::Cpu*> cpus_;
    sim::Channel<PoolJob> jobs_;
};

}  // namespace wave::workload
