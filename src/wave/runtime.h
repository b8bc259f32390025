/**
 * @file
 * The Wave runtime: queue lifecycle, agent lifecycle, NIC DRAM.
 *
 * One WaveRuntime instance per simulated machine. It owns the MMIO-
 * exposed NIC DRAM window and the DMA engine, allocates queue storage
 * (CREATE_QUEUE / DESTROY_QUEUE), builds host/NIC endpoint pairs with
 * PTE types chosen from the active OptimizationConfig (SET_QUEUE_TYPE),
 * allocates MSI-X vectors, and runs every agent — on a SmartNIC core,
 * or on a host core for an on-host deployment or fallback — in a slot
 * of its own (START_WAVE_AGENT / KILL_WAVE_AGENT).
 */
// wave-domain: pcie
#pragma once

#include <memory>
#include <vector>

#include "channel/dma_queue.h"
#include "channel/mmio_queue.h"
#include "machine/machine.h"
#include "pcie/dma.h"
#include "pcie/mmio.h"
#include "pcie/msix.h"
#include "sim/simulator.h"
#include "wave/api.h"

namespace wave::check {
class CoherenceChecker;
class HbRaceDetector;
class ProtocolChecker;
}

namespace wave::sim::inject {
class FaultInjector;
}

namespace wave {

/** A host->NIC MMIO message channel (SEND_MESSAGES / POLL_MESSAGES). */
struct HostToNicChannel {
    std::unique_ptr<channel::MmioQueue> storage;
    std::unique_ptr<channel::HostProducer> host;
    std::unique_ptr<channel::NicConsumer> nic;
};

/** A NIC->host MMIO decision channel (TXNS_COMMIT / POLL_TXNS). */
struct NicToHostChannel {
    std::unique_ptr<channel::MmioQueue> storage;
    std::unique_ptr<channel::NicProducer> nic;
    std::unique_ptr<channel::HostConsumer> host;
};

/** A userspace system-software agent running on a SmartNIC core. */
class Agent {
  public:
    virtual ~Agent() = default;

    /**
     * The agent main loop. Implementations must poll
     * @p ctx->StopRequested() regularly and return when it is set —
     * that is how KILL_WAVE_AGENT (and the watchdog) stop an agent.
     */
    virtual sim::Task<> Run(class AgentContext& ctx) = 0;
};

/** Execution context handed to a running agent. */
class AgentContext {
  public:
    AgentContext(sim::Simulator& sim, machine::Cpu& cpu)
        : sim_(sim), cpu_(cpu)
    {
    }

    sim::Simulator& Sim() { return sim_; }

    /** The core the agent runs on (for Work() costs). */
    machine::Cpu& Cpu() { return cpu_; }

    /** True once KILL_WAVE_AGENT was issued; the agent must return. */
    bool StopRequested() const { return stop_; }

    /**
     * While Now() < StallUntil() the agent is wedged: alive but making
     * no progress (a hung core, a runaway GC pause). Agent loops honour
     * this by idling instead of iterating — which is exactly the state
     * the watchdog exists to detect.
     */
    sim::TimeNs StallUntil() const { return stall_until_; }

  private:
    friend class WaveRuntime;
    sim::Simulator& sim_;
    machine::Cpu& cpu_;
    bool stop_ = false;
    sim::TimeNs stall_until_{};
};

/** Handle returned by StartWaveAgent. */
using AgentId = std::size_t;

/** Per-machine Wave runtime. */
class WaveRuntime {
  public:
    /**
     * @param nic_dram_bytes size of the MMIO-exposed NIC DRAM window
     *        used for queue storage. Only the queue windows handed out
     *        so far are backed by host memory; this is their limit.
     */
    WaveRuntime(sim::Simulator& sim, machine::Machine& machine,
                const pcie::PcieConfig& pcie_config,
                const api::OptimizationConfig& opt,
                std::size_t nic_dram_bytes = 16u << 20);
    ~WaveRuntime();

    // --- Queues (CREATE_QUEUE / SET_QUEUE_TYPE / DESTROY_QUEUE) ---

    /** Creates a host->NIC MMIO message queue. */
    HostToNicChannel CreateHostToNicQueue(const channel::QueueConfig& qc);

    /** Creates a NIC->host MMIO decision queue. */
    NicToHostChannel CreateNicToHostQueue(const channel::QueueConfig& qc);

    /**
     * Creates a DMA queue in the given direction; each Send on the
     * returned queue picks sync or async transfer.
     */
    std::unique_ptr<channel::DmaQueue> CreateDmaQueue(
        const channel::QueueConfig& qc, pcie::DmaInitiator initiator);

    /** Allocates an MSI-X vector targeting a host core. */
    std::unique_ptr<pcie::MsiXVector> CreateMsiXVector();

    // --- Agents (START_WAVE_AGENT / KILL_WAVE_AGENT) ---

    /**
     * Starts @p agent on @p cpu, a SmartNIC core or a host core; returns
     * its id. The runtime owns the agent and its context until it is
     * destroyed, so a killed agent finishes its pass on live state.
     */
    AgentId StartWaveAgent(std::shared_ptr<Agent> agent, machine::Cpu& cpu);

    /** Starts @p agent on NIC core @p nic_core; returns its id. */
    AgentId
    StartWaveAgent(std::shared_ptr<Agent> agent, int nic_core)
    {
        return StartWaveAgent(std::move(agent), machine_.NicCpu(nic_core));
    }

    /** Requests the agent stop; it exits at its next poll. */
    void KillWaveAgent(AgentId id);

    /**
     * Wedges the agent for @p duration: it stays alive but stops
     * iterating (fault injection for watchdog coverage). Extending an
     * active stall takes the later deadline.
     */
    void StallWaveAgent(AgentId id, sim::DurationNs duration);

    /** True while the agent's Run() has not returned. */
    bool AgentAlive(AgentId id) const;

    pcie::NicDram& Dram() { return *dram_; }
    pcie::DmaEngine& Dma() { return *dma_; }

    /**
     * The cross-domain coherence checker attached to this runtime's
     * fabric, or nullptr when built with -DWAVE_CHECK=OFF. On by
     * default: it records (and warns about) host<->NIC reads of lines
     * dirty in the other clock domain without an ordering point.
     */
    check::CoherenceChecker* Checker() { return checker_.get(); }

    /**
     * The protocol state-machine verifier, or nullptr under
     * -DWAVE_CHECK=OFF. Queue endpoints created by this runtime report
     * their seqnum streams to it automatically; subsystems (txn
     * endpoints, KernelSched, Watchdog) attach themselves on top.
     */
    check::ProtocolChecker* Protocol() { return protocol_.get(); }

    /**
     * The happens-before race detector, or nullptr under
     * -DWAVE_CHECK=OFF. Queue endpoints created by this runtime are
     * registered as actors and report accesses + sync edges.
     */
    check::HbRaceDetector* Hb() { return hb_.get(); }

    machine::Machine& GetMachine() { return machine_; }
    sim::Simulator& Sim() { return sim_; }
    const pcie::PcieConfig& PcieCfg() const { return pcie_config_; }

    /**
     * Wires a fault injector into this runtime's fabric: the NIC DRAM
     * window (MMIO latency spikes), the DMA engine, and every MSI-X
     * vector created afterwards. Transports built over this runtime
     * additionally bind their txn endpoints. Call before constructing
     * the transport; pass nullptr to detach from future creations.
     */
    void AttachInjector(sim::inject::FaultInjector* injector);

    /** The attached fault injector, or nullptr. */
    sim::inject::FaultInjector* Injector() const { return injector_; }

    /** PTE type NIC agents use for local queue access. */
    pcie::PteType
    NicPte() const
    {
        return opt_.nic_wb_ptes ? pcie::PteType::kWriteBack
                                : pcie::PteType::kUncacheable;
    }

  private:
    struct AgentSlot {
        std::shared_ptr<Agent> agent;
        std::unique_ptr<AgentContext> ctx;
        bool alive = false;
    };

    sim::Task<> RunAgent(AgentId id);

    /**
     * Carves a line-aligned window out of NIC DRAM, grows the backing
     * to cover it, and sizes the coherence checker's line state for it.
     */
    std::size_t AllocateDram(std::size_t bytes);

    sim::Simulator& sim_;
    machine::Machine& machine_;
    pcie::PcieConfig pcie_config_;
    api::OptimizationConfig opt_;
    std::unique_ptr<pcie::NicDram> dram_;
    std::unique_ptr<pcie::DmaEngine> dma_;
    std::unique_ptr<check::CoherenceChecker> checker_;  ///< may be null
    std::unique_ptr<check::ProtocolChecker> protocol_;  ///< may be null
    std::unique_ptr<check::HbRaceDetector> hb_;         ///< may be null
    sim::inject::FaultInjector* injector_ = nullptr;    ///< not owned
    std::size_t dram_limit_;     ///< nic_dram_bytes
    std::size_t dram_bump_ = 0;  ///< bytes handed out == backing size
    std::vector<AgentSlot> agents_;
};

}  // namespace wave
