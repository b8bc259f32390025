/**
 * @file
 * The traced run (--trace 1): the workloads' deployments rebuilt from
 * the layers' public constructors, with per-layer counts, the policy's
 * host time, and the layer rungs.
 */
#pragma once

#include <cstdint>

#include "rpc/rpc_experiment.h"
#include "stats/histogram.h"
#include "workload/sched_experiment.h"
#include "workloads.h"

namespace perfbench {

/** Per-layer counts, summed over the traced points of one pass. */
struct Counters {
    std::uint64_t events = 0;  ///< sim

    std::uint64_t roundtrip_reads = 0;  ///< pcie, queue data mappings
    std::uint64_t cache_hits = 0;
    std::uint64_t posted_writes = 0;
    std::uint64_t wc_flushes = 0;
    std::uint64_t msix_sends = 0;
    std::uint64_t dma_transfers = 0;

    std::uint64_t channel_sends = 0;  ///< entries enqueued, all queues
    std::uint64_t channel_polls = 0;  ///< transport poll calls

    std::uint64_t txns = 0;  ///< wave: decisions staged
    std::uint64_t commits_ok = 0;
    std::uint64_t commits_failed = 0;

    std::uint64_t messages = 0;  ///< ghost
    std::uint64_t agent_iterations = 0;
    std::uint64_t kicks = 0;
    std::uint64_t prestage_hits = 0;
    std::uint64_t idle_waits = 0;
    wave::stats::Histogram ctx_switch;  ///< simulated ns

    std::uint64_t decisions = 0;  ///< sched
    std::uint64_t preemptions = 0;
    double sched_host_ns = 0;
    std::uint64_t sched_calls = 0;

    std::uint64_t coherence_hooks = 0;  ///< check
    std::uint64_t hb_hooks = 0;
    std::uint64_t protocol_hooks = 0;
    std::uint64_t violations = 0;  ///< coherence + hb races + protocol

    std::uint64_t stats_records = 0;  ///< public histogram counts

    std::uint64_t requests = 0;  ///< workload: completed in window
    std::uint64_t points = 0;
    std::uint64_t steered = 0;  ///< rpc
};

/**
 * workload::RunSchedExperiment, rebuilt with a traced transport and
 * policy; adds the point's counts to @p c.
 */
PointResult TracedSchedPoint(const wave::workload::SchedExperimentConfig& cfg,
                             Counters& c);

/** rpc::RunRpcExperiment (Offload-All), rebuilt the same way. */
PointResult TracedRpcPoint(const wave::rpc::RpcExperimentConfig& cfg,
                           Counters& c);

/** Runs the traced measurement and prints its JSON report line. */
int RunTraced(Kind kind, std::uint64_t seed, double seconds);

}  // namespace perfbench
