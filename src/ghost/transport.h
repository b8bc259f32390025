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
 * Both run Wave's txn endpoints (wave/txn.h) over their per-core queues
 * through one shared per-core half, TxnSchedTransport; each binding
 * keeps only its queue construction, message path and kick receive
 * cost. Every experiment's "On-Host vs Wave" comparison swaps this one
 * object and nothing else, exactly as the paper swaps deployments.
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

/**
 * The per-core txn-and-kick half both bindings share. For each served
 * core it holds the core's decision and outcome queues (@p Queues), the
 * wave/txn endpoints over them (@p AgentTxn on the agent side,
 * @p KernelTxn on the host side), the vector that kicks the core and
 * the interrupt line the kick raises. A binding builds the queues and
 * endpoints and adds its message path and the cost of taking its kick.
 */
template <typename Queues, typename AgentTxn, typename KernelTxn>
class TxnSchedTransport : public SchedTransport {
  public:
    sim::Task<std::optional<PendingDecision>>
    HostPollDecision(int core, bool flush_first) override
    {
        auto txn = co_await For(core).kernel->PollTxns(flush_first);
        if (!txn) co_return std::nullopt;
        co_return PendingDecision{
            txn->id, channel::FromBytes<GhostDecision>(txn->payload)};
    }

    sim::Task<>
    HostPrefetchDecision(int core) override
    {
        return For(core).kernel->PrefetchTxns();
    }

    sim::Task<>
    HostSendOutcome(int core, const api::TxnOutcome& outcome) override
    {
        return For(core).kernel->SetTxnsOutcomes({&outcome, 1});
    }

    CoreInterrupt&
    InterruptFor(int core) override
    {
        return *For(core).interrupt;
    }

    api::TxnId
    AgentStageDecision(const GhostDecision& d) override
    {
        return For(d.core).agent->TxnCreate(
            channel::ToBytes(d, GhostWire::kDecisionPayload));
    }

    sim::Task<std::size_t>
    AgentCommit(int core, bool kick) override
    {
        return For(core).agent->TxnsCommit(kick);
    }

    sim::Task<std::vector<api::TxnOutcome>>
    AgentPollOutcomes(int core, std::size_t max) override
    {
        return For(core).agent->PollTxnsOutcomes(max);
    }

    sim::Task<> AgentKick(int core) override { return For(core).kick->Send(); }

    int CoreCount() const override { return core_count_; }

  protected:
    /** One served core. */
    struct Core {
        Queues queues;
        std::unique_ptr<pcie::MsiXVector> kick;
        std::unique_ptr<AgentTxn> agent;
        std::unique_ptr<KernelTxn> kernel;
        std::unique_ptr<CoreInterrupt> interrupt;
    };

    /**
     * Serves @p core with @p c. Its kick raises the core's interrupt
     * line; the kernel loop pays the receive cost when it handles it.
     */
    void
    Serve(sim::Simulator& sim, int core, std::unique_ptr<Core> c)
    {
        WAVE_ASSERT(core >= 0, "negative core id %d", core);
        const auto index = static_cast<std::size_t>(core);
        if (index >= percore_.size()) percore_.resize(index + 1);
        WAVE_ASSERT(percore_[index] == nullptr, "core %d listed twice",
                    core);
        c->interrupt = std::make_unique<CoreInterrupt>(sim);
        CoreInterrupt* line = c->interrupt.get();
        c->kick->SetDeliveryHandler([line] { line->Raise(); });
        percore_[index] = std::move(c);
        ++core_count_;
    }

    /**
     * Indexed by host core id; null for cores this transport skips.
     * Index order is ascending core order.
     */
    std::vector<std::unique_ptr<Core>> percore_;

  private:
    Core&
    For(int core)
    {
        const auto index = static_cast<std::size_t>(core);
        WAVE_ASSERT(core >= 0 && index < percore_.size() &&
                        percore_[index] != nullptr,
                    "core %d is not served by this transport", core);
        return *percore_[index];
    }

    int core_count_ = 0;  ///< cores served
};

/** Wave's per-core queues: both live in NIC DRAM and cross PCIe. */
struct WaveCoreQueues {
    NicToHostChannel decisions;
    HostToNicChannel outcomes;
};

/** Wave/PCIe binding: the agent runs on the SmartNIC (§3.1). */
class WaveSchedTransport
    : public TxnSchedTransport<WaveCoreQueues, NicTxnEndpoint,
                               HostTxnEndpoint> {
  public:
    /**
     * @param runtime the machine's Wave runtime (queues, MSI-X, DRAM).
     * @param cores host cores to serve (per-core decision queues).
     */
    WaveSchedTransport(WaveRuntime& runtime, int cores);

    /** Serves an explicit core set (one enclave's partition, §6). */
    WaveSchedTransport(WaveRuntime& runtime, const std::vector<int>& cores);

    sim::Task<> HostSendMessage(const GhostMessage& message) override;
    sim::DurationNs InterruptReceiveCost() const override;
    sim::Task<std::vector<GhostMessage>> AgentPollMessages(
        std::size_t max) override;

  private:
    WaveRuntime& runtime_;
    HostToNicChannel messages_;
    /**
     * The message queue has one logical producer but many host-side
     * processes (core loops, wake paths) send through it; this lock
     * serializes them, like the kernel's per-queue spinlock.
     */
    sim::Resource send_lock_;
};

/** The on-host binding's per-core queues in coherent shared memory. */
struct ShmCoreQueues {
    std::unique_ptr<ShmQueue> decisions;
    std::unique_ptr<ShmQueue> outcomes;
};

/** On-host binding: the agent runs on a dedicated host core. */
class ShmSchedTransport
    : public TxnSchedTransport<ShmCoreQueues, ShmAgentTxnEndpoint,
                               ShmKernelTxnEndpoint> {
  public:
    /** IPI costs modelled with the same latched-vector mechanism. */
    static pcie::PcieConfig IpiCosts();

    ShmSchedTransport(sim::Simulator& sim, int cores);

    /** Serves an explicit core set (one enclave's partition, §6). */
    ShmSchedTransport(sim::Simulator& sim, const std::vector<int>& cores);

    /**
     * Attaches the protocol/HB checkers to every queue and to the txn
     * endpoints. The Wave binding wires itself from its runtime; the
     * shm baseline has no runtime, so the enclave passes the checkers
     * in explicitly. Either argument may be null.
     */
    void AttachCheckers(check::HbRaceDetector* hb,
                        check::ProtocolChecker* protocol);

    sim::Task<> HostSendMessage(const GhostMessage& message) override;
    sim::DurationNs InterruptReceiveCost() const override;
    sim::Task<std::vector<GhostMessage>> AgentPollMessages(
        std::size_t max) override;

  private:
    ShmQueue messages_;
};

}  // namespace wave::ghost
