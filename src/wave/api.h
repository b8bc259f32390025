/**
 * @file
 * Core Wave API types (Table 1 of the paper).
 *
 * Wave is a framework for offloading userspace system software to
 * SmartNIC agents. The host kernel sends state updates to agents as
 * *messages* over a unidirectional queue; agents send policy decisions
 * back as *transactions* over another queue, and the host reports each
 * transaction's atomic commit outcome on a third. Queues are backed by
 * MMIO or DMA (SET_QUEUE_TYPE) depending on the subsystem's
 * latency/throughput needs.
 */
// wave-domain: pcie
#pragma once

#include <cstdint>
#include <vector>

namespace wave::api {

/**
 * The §5.3.1-§5.4 optimization ladder, matching the ablation in §7.2.2.
 *
 * Baseline maps everything uncacheable on both sides. Each flag enables
 * one paper optimization; benches sweep them cumulatively.
 */
struct OptimizationConfig {
    /** SmartNIC agents map NIC DRAM write-back instead of uncacheable. */
    bool nic_wb_ptes = false;

    /** Host maps queues write-combining (send) / write-through (recv). */
    bool host_wc_wt_ptes = false;

    /**
     * Policy-level: agents prestage decisions ahead of need and the
     * host prefetches them before blocking reads (§5.4).
     */
    bool prestage_prefetch = false;

    /** All optimizations on — the configuration Wave ships with. */
    static OptimizationConfig
    Full()
    {
        return {true, true, true};
    }

    /** No optimizations — the §7.2.2 baseline row. */
    static OptimizationConfig
    None()
    {
        return {false, false, false};
    }
};

/** Outcome of a transaction's atomic commit on the host (§3.2). */
enum class TxnStatus : std::uint32_t {
    kCommitted = 0,      ///< decision enforced
    kFailedStale = 1,    ///< target state changed (e.g. thread exited)
    kFailedRejected = 2, ///< host policy refused the decision
};

/** Identifier assigned by TXN_CREATE, unique per agent endpoint. */
using TxnId = std::uint64_t;

/** Wire record reporting one transaction's outcome. */
struct TxnOutcome {
    TxnId txn_id;
    TxnStatus status;
};

using Bytes = std::vector<std::byte>;

}  // namespace wave::api
