/**
 * @file
 * Transaction endpoints (the TXN_* half of Table 1).
 *
 * Agents stage decisions locally with TxnCreate() and publish a batch
 * with TxnsCommit(), optionally kicking the target host core with an
 * MSI-X. The host pulls decisions with PollTxns() (prefetching them
 * first via PrefetchTxns() to hide the PCIe read, §5.4), attempts the
 * atomic commit against live kernel state, and reports each result with
 * SetTxnsOutcomes(); the agent observes results via PollTxnsOutcomes().
 *
 * The atomic-commit guarantee itself lives with the kernel subsystem
 * (e.g. ghost::KernelSched checks that the scheduled thread is still
 * runnable); Wave transports the decision and its outcome.
 *
 * The endpoints are generic over the queue endpoints they drive, so
 * both deployments run this one implementation of the protocol: Wave's
 * MMIO queues across PCIe and the on-host baseline's coherent
 * shared-memory queues (ghost/transport.h).
 */
// wave-domain: pcie
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "channel/mmio_queue.h"
#include "pcie/msix.h"
#include "sim/task.h"
#include "wave/api.h"
#include "wave/shm_queue.h"

namespace wave::check {
class ProtocolChecker;
}

namespace wave::sim::inject {
class FaultInjector;
}

namespace wave {

/** A decision delivered to the host: txn id + subsystem payload. */
struct HostTxn {
    api::TxnId id;
    api::Bytes payload;
};

/** Computes queue payload sizes for a given inner decision size. */
struct TxnWire {
    static constexpr std::size_t kHeaderSize = sizeof(api::TxnId);
    static constexpr std::size_t kOutcomeSize = 16;  // id + status + pad

    static constexpr std::size_t
    DecisionPayloadSize(std::size_t inner)
    {
        return kHeaderSize + inner;
    }
};

/**
 * Agent-side transaction endpoint over decision-queue producer @p D and
 * outcome-queue consumer @p O (NicTxnEndpoint, ShmAgentTxnEndpoint).
 */
template <typename D, typename O>
class AgentTxnEndpoint {
  public:
    /**
     * @param decisions producer of the decision queue.
     * @param outcomes consumer of the outcome queue.
     * @param msix optional vector to kick the host core; may be null
     *        for polled queues (the RPC stack skips the MSI-X, §4.3).
     */
    AgentTxnEndpoint(D& decisions, O& outcomes, pcie::MsiXVector* msix)
        : decisions_(decisions), outcomes_(outcomes), msix_(msix)
    {
    }

    /** Stages a decision locally; returns its transaction id. */
    api::TxnId TxnCreate(api::Bytes payload);

    /**
     * Publishes all staged transactions, in creation order, and
     * optionally sends the MSI-X. Returns how many were enqueued
     * (staged txns that did not fit remain staged).
     */
    sim::Task<std::size_t> TxnsCommit(bool send_msix);

    /** Drains up to @p max outcome records reported by the host. */
    sim::Task<std::vector<api::TxnOutcome>> PollTxnsOutcomes(
        std::size_t max);

    std::size_t StagedCount() const { return staged_.size(); }

    /**
     * Attaches the protocol state-machine verifier. The lifecycle
     * scope is the shared decision-queue storage, so the host endpoint
     * of the same channel resolves to the same scope.
     */
    void AttachProtocol(check::ProtocolChecker* protocol)
    {
        protocol_ = protocol;
    }

    /**
     * Attaches the fault injector. During a double-commit-bug window
     * TxnsCommit() re-publishes the first record it just sent under
     * the same transaction id — the deliberate protocol violation the
     * fuzz rig's seeded-bug demo must detect and shrink to.
     */
    void SetFaultInjector(sim::inject::FaultInjector* injector)
    {
        injector_ = injector;
    }

  private:
    D& decisions_;
    O& outcomes_;
    pcie::MsiXVector* msix_;
    api::TxnId next_id_ = 1;
    std::vector<api::Bytes> staged_;  ///< already framed with txn ids
    std::vector<api::TxnId> staged_ids_;  ///< parallel to staged_
    api::Bytes record_;  ///< outcome slot buffer, reused across polls
    check::ProtocolChecker* protocol_ = nullptr;
    sim::inject::FaultInjector* injector_ = nullptr;
};

/**
 * Host-side transaction endpoint over decision-queue consumer @p D and
 * outcome-queue producer @p O (HostTxnEndpoint, ShmKernelTxnEndpoint).
 * One host context drives each endpoint.
 */
template <typename D, typename O>
class KernelTxnEndpoint {
  public:
    KernelTxnEndpoint(D& decisions, O& outcomes, pcie::MsiXVector* msix)
        : decisions_(decisions), outcomes_(outcomes), msix_(msix)
    {
    }

    /**
     * Next pending transaction, if any.
     *
     * @param flush_first run the software-coherence flush before the
     *        read (required when new data may have arrived unprompted;
     *        unnecessary right after a prefetched hit). Coherent shared
     *        memory ignores it.
     */
    sim::Task<std::optional<HostTxn>> PollTxns(bool flush_first);

    /** Prefetches the next decision slot (PREFETCH_TXNS, §5.4). */
    sim::Task<> PrefetchTxns() { return decisions_.PrefetchNext(); }

    /** Reports commit outcomes back to the agent. */
    sim::Task<> SetTxnsOutcomes(std::span<const api::TxnOutcome> outs);

    /** Suspends until the agent's MSI-X arrives (requires a vector). */
    sim::Task<> WaitForKick();

    /** Consumes a pending kick without blocking. */
    bool ConsumeKick();

    /** Attaches the protocol verifier (see AgentTxnEndpoint). */
    void AttachProtocol(check::ProtocolChecker* protocol)
    {
        protocol_ = protocol;
    }

  private:
    D& decisions_;
    O& outcomes_;
    pcie::MsiXVector* msix_;
    std::vector<api::Bytes> records_;  ///< outcome records, reused
    check::ProtocolChecker* protocol_ = nullptr;
};

/**
 * The instantiations, all in txn.cc: Wave's endpoints, whose queues
 * cross PCIe in NIC DRAM, and the on-host baseline's over coherent
 * shared memory.
 */
using NicTxnEndpoint =
    AgentTxnEndpoint<channel::NicProducer, channel::NicConsumer>;
using HostTxnEndpoint =
    KernelTxnEndpoint<channel::HostConsumer, channel::HostProducer>;
using ShmAgentTxnEndpoint = AgentTxnEndpoint<ShmQueue, ShmQueue>;
using ShmKernelTxnEndpoint = KernelTxnEndpoint<ShmQueue, ShmQueue>;

}  // namespace wave
