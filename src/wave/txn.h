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
 */
// wave-domain: pcie
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "channel/mmio_queue.h"
#include "pcie/msix.h"
#include "sim/task.h"
#include "wave/api.h"

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

/** Agent-side transaction endpoint over a NIC->host decision queue. */
class NicTxnEndpoint {
  public:
    /**
     * @param decisions NIC producer of the decision queue.
     * @param outcomes NIC consumer of the outcome queue.
     * @param msix optional vector to kick the host core; may be null
     *        for polled queues (the RPC stack skips the MSI-X, §4.3).
     */
    NicTxnEndpoint(channel::NicProducer& decisions,
                   channel::NicConsumer& outcomes,
                   pcie::MsiXVector* msix);

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
    channel::NicProducer& decisions_;
    channel::NicConsumer& outcomes_;
    pcie::MsiXVector* msix_;
    api::TxnId next_id_ = 1;
    std::vector<api::Bytes> staged_;  ///< already framed with txn ids
    std::vector<api::TxnId> staged_ids_;  ///< parallel to staged_
    api::Bytes record_;  ///< outcome slot buffer, reused across polls
    check::ProtocolChecker* protocol_ = nullptr;
    sim::inject::FaultInjector* injector_ = nullptr;
};

/** Host-side transaction endpoint. */
class HostTxnEndpoint {
  public:
    HostTxnEndpoint(channel::HostConsumer& decisions,
                    channel::HostProducer& outcomes,
                    pcie::MsiXVector* msix);

    /**
     * Next pending transaction, if any.
     *
     * @param flush_first run the software-coherence flush before the
     *        read (required when new data may have arrived unprompted;
     *        unnecessary right after a prefetched hit).
     */
    sim::Task<std::optional<HostTxn>> PollTxns(bool flush_first);

    /** Prefetches the next decision slot (PREFETCH_TXNS, §5.4). */
    sim::Task<> PrefetchTxns();

    /** Flushes the next decision slot (software coherence on MSI-X). */
    sim::Task<> FlushTxns();

    /** Reports commit outcomes back to the agent. */
    sim::Task<> SetTxnsOutcomes(const std::vector<api::TxnOutcome>& outs);

    /** Suspends until the agent's MSI-X arrives (requires a vector). */
    sim::Task<> WaitForKick();

    /** Consumes a pending kick without blocking. */
    bool ConsumeKick();

    /** Attaches the protocol verifier (see NicTxnEndpoint). */
    void AttachProtocol(check::ProtocolChecker* protocol)
    {
        protocol_ = protocol;
    }

  private:
    channel::HostConsumer& decisions_;
    channel::HostProducer& outcomes_;
    pcie::MsiXVector* msix_;
    check::ProtocolChecker* protocol_ = nullptr;
};

}  // namespace wave
