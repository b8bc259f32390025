/**
 * @file
 * Scheduling transport: the apples-to-apples axis of §7.2.
 *
 * The ghOSt kernel class and the scheduling agent communicate through
 * this interface. Two bindings exist:
 *
 *   - WaveSchedTransport: the agent lives on the SmartNIC; messages,
 *     decisions, and outcomes cross PCIe through Wave MMIO queues, and
 *     kicks are MSI-X interrupts (the offloaded configuration).
 *   - ShmSchedTransport: the agent lives on a dedicated host core;
 *     everything moves through coherent shared memory and kicks are
 *     IPIs (the on-host ghOSt baseline).
 *
 * Every experiment's "On-Host vs Wave" comparison swaps this one object
 * and nothing else, exactly as the paper swaps deployments.
 */
// wave-domain: host
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "channel/bytes.h"
#include "ghost/interrupt.h"
#include "sim/sync.h"
#include "ghost/messages.h"
#include "sim/task.h"
#include "wave/api.h"
#include "wave/runtime.h"
#include "wave/shm_queue.h"
#include "wave/txn.h"

namespace wave::ghost {

/** A decision plus its transaction id, as seen by the host. */
struct PendingDecision {
    api::TxnId txn_id;
    GhostDecision decision;
};

/** Abstract host<->agent scheduling transport. */
class SchedTransport {
  public:
    virtual ~SchedTransport() = default;

    // --- Host (kernel) side ---

    /** Sends one thread-event message to the agent (SEND_MESSAGES). */
    virtual sim::Task<> HostSendMessage(const GhostMessage& message) = 0;

    /** Polls core @p core's decision queue (POLL_TXNS). */
    virtual sim::Task<std::optional<PendingDecision>> HostPollDecision(
        int core, bool flush_first) = 0;

    /** Prefetches core @p core's next decision slot (PREFETCH_TXNS). */
    virtual sim::Task<> HostPrefetchDecision(int core) = 0;

    /** Reports a commit outcome (SET_TXNS_OUTCOMES). */
    virtual sim::Task<> HostSendOutcome(int core,
                                        const api::TxnOutcome& outcome) = 0;

    /** The interrupt line the agent's kick raises on @p core. */
    virtual CoreInterrupt& InterruptFor(int core) = 0;

    /** Host-side cost of taking the agent's kick (MSI-X vs IPI). */
    virtual sim::DurationNs InterruptReceiveCost() const = 0;

    // --- Agent side ---

    /** Drains up to @p max thread-event messages (POLL_MESSAGES). */
    virtual sim::Task<std::vector<GhostMessage>> AgentPollMessages(
        std::size_t max) = 0;

    /** Stages a decision for its core's queue (TXN_CREATE). */
    virtual api::TxnId AgentStageDecision(const GhostDecision& d) = 0;

    /**
     * Publishes staged decisions for @p core (TXNS_COMMIT), optionally
     * kicking the host core.
     */
    virtual sim::Task<std::size_t> AgentCommit(int core, bool kick) = 0;

    /** Drains commit outcomes for @p core (POLL_TXNS_OUTCOMES). */
    virtual sim::Task<std::vector<api::TxnOutcome>> AgentPollOutcomes(
        int core, std::size_t max) = 0;

    /**
     * Kicks @p core without committing anything — used to close the
     * race where a prestaged decision lands concurrently with the host
     * going idle. Spurious kicks cost one interrupt receive.
     */
    virtual sim::Task<> AgentKick(int core) = 0;

    /** Number of host cores this transport serves. */
    virtual int CoreCount() const = 0;
};

/** Wave/PCIe binding: the agent runs on the SmartNIC (§3.1). */
class WaveSchedTransport : public SchedTransport {
  public:
    /**
     * @param runtime the machine's Wave runtime (queues, MSI-X, DRAM).
     * @param cores host cores to serve (per-core decision queues).
     */
    WaveSchedTransport(WaveRuntime& runtime, int cores);

    /** Serves an explicit core set (one enclave's partition, §6). */
    WaveSchedTransport(WaveRuntime& runtime, const std::vector<int>& cores);

    sim::Task<> HostSendMessage(const GhostMessage& message) override;
    sim::Task<std::optional<PendingDecision>> HostPollDecision(
        int core, bool flush_first) override;
    sim::Task<> HostPrefetchDecision(int core) override;
    sim::Task<> HostSendOutcome(int core,
                                const api::TxnOutcome& outcome) override;
    CoreInterrupt& InterruptFor(int core) override;
    sim::DurationNs InterruptReceiveCost() const override;
    sim::Task<std::vector<GhostMessage>> AgentPollMessages(
        std::size_t max) override;
    api::TxnId AgentStageDecision(const GhostDecision& d) override;
    sim::Task<std::size_t> AgentCommit(int core, bool kick) override;
    sim::Task<std::vector<api::TxnOutcome>> AgentPollOutcomes(
        int core, std::size_t max) override;
    sim::Task<> AgentKick(int core) override;
    int CoreCount() const override { return core_count_; }

  private:
    struct PerCore {
        NicToHostChannel decisions;
        HostToNicChannel outcomes;
        std::unique_ptr<pcie::MsiXVector> msix;
        std::unique_ptr<NicTxnEndpoint> nic_txn;
        std::unique_ptr<HostTxnEndpoint> host_txn;
        std::unique_ptr<CoreInterrupt> interrupt;
    };

    PerCore& For(int core);

    WaveRuntime& runtime_;
    HostToNicChannel messages_;
    /**
     * The message queue has one logical producer but many host-side
     * processes (core loops, wake paths) send through it; this lock
     * serializes them, like the kernel's per-queue spinlock.
     */
    sim::Resource send_lock_;
    /** Indexed by host core id; null for cores this transport skips. */
    std::vector<std::unique_ptr<PerCore>> percore_;
    int core_count_ = 0;  ///< cores served
};

/** On-host binding: the agent runs on a dedicated host core. */
class ShmSchedTransport : public SchedTransport {
  public:
    /** IPI costs modelled with the same latched-vector mechanism. */
    static pcie::PcieConfig IpiCosts();

    ShmSchedTransport(sim::Simulator& sim, int cores);

    /** Serves an explicit core set (one enclave's partition, §6). */
    ShmSchedTransport(sim::Simulator& sim, const std::vector<int>& cores);

    /**
     * Attaches the protocol/HB checkers to every queue and to the txn
     * lifecycle. The Wave binding wires itself from its runtime; the
     * shm baseline has no runtime, so the enclave passes the checkers
     * in explicitly. Either argument may be null.
     */
    void AttachCheckers(check::HbRaceDetector* hb,
                        check::ProtocolChecker* protocol);

    sim::Task<> HostSendMessage(const GhostMessage& message) override;
    sim::Task<std::optional<PendingDecision>> HostPollDecision(
        int core, bool flush_first) override;
    sim::Task<> HostPrefetchDecision(int core) override;
    sim::Task<> HostSendOutcome(int core,
                                const api::TxnOutcome& outcome) override;
    CoreInterrupt& InterruptFor(int core) override;
    sim::DurationNs InterruptReceiveCost() const override;
    sim::Task<std::vector<GhostMessage>> AgentPollMessages(
        std::size_t max) override;
    api::TxnId AgentStageDecision(const GhostDecision& d) override;
    sim::Task<std::size_t> AgentCommit(int core, bool kick) override;
    sim::Task<std::vector<api::TxnOutcome>> AgentPollOutcomes(
        int core, std::size_t max) override;
    sim::Task<> AgentKick(int core) override;
    int CoreCount() const override { return core_count_; }

  private:
    struct PerCore {
        std::unique_ptr<ShmQueue> decisions;
        std::unique_ptr<ShmQueue> outcomes;
        std::unique_ptr<pcie::MsiXVector> ipi;
        std::unique_ptr<CoreInterrupt> interrupt;
        std::vector<api::Bytes> staged;
    };

    PerCore& For(int core);

    sim::Simulator& sim_;
    ShmQueue messages_;
    /**
     * Indexed by host core id; null for cores this transport skips.
     * Index order is ascending core order, the order in which
     * AttachCheckers registers each core's actors.
     */
    std::vector<std::unique_ptr<PerCore>> percore_;
    int core_count_ = 0;  ///< cores served
    api::TxnId next_txn_id_ = 1;
    check::ProtocolChecker* protocol_ = nullptr;
};

}  // namespace wave::ghost
