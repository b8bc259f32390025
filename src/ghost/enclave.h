/**
 * @file
 * Scheduling enclaves (§6 "Focus on Host Partitions and Agent
 * Scalability").
 *
 * Datacenter machines host multiple tenants that want different
 * policies; ghOSt's proven answer is *enclaves*: disjoint partitions
 * of host cores, each a self-contained scheduling domain with its own
 * kernel scheduling-class state, transport queues, agent, and policy.
 * Wave keeps the model — the §7.2 scheduling agent operates per CCX —
 * and adds the per-component watchdog (§3.3) and restart-based
 * recovery (§6): the enclave's AgentSupervisor kills its wedged agent
 * and starts a fresh one on the same placement that re-pulls thread
 * state from the kernel, without touching neighbouring enclaves.
 */
// wave-domain: host
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/supervisor.h"
#include "ghost/transport.h"
#include "wave/runtime.h"

namespace wave::ghost {

/** Configuration for one scheduling enclave. */
struct EnclaveConfig {
    /** Host cores this enclave owns (e.g. one CCX). */
    std::vector<int> cores;

    /** SmartNIC core its agent runs on (Wave deployment). */
    int nic_core = 0;

    /** Run the agent on the SmartNIC (true) or a host core (false). */
    bool offloaded = true;

    /** Host core for the on-host agent (offloaded == false). */
    int host_agent_core = 0;

    /** Makes a fresh policy instance (used at start and on restart). */
    std::function<std::shared_ptr<SchedPolicy>()> policy_factory;

    /** Watchdog threshold; 0 disables the watchdog. */
    sim::DurationNs watchdog_timeout_ns = 20'000'000;
};

/** A self-contained scheduling partition: kernel + queues + agent. */
class Enclave {
  public:
    Enclave(WaveRuntime& runtime, EnclaveConfig config);

    /** Adds a thread to this enclave's scheduling domain. */
    void
    AddThread(Tid tid, std::shared_ptr<ThreadBody> body)
    {
        kernel_->AddThread(tid, std::move(body));
    }

    /** Starts the kernel loops and the agent; arms the watchdog. */
    void Start();

    /**
     * Kills the current agent and starts a replacement with a fresh
     * policy, as a watchdog expiry does. The kernel re-announces this
     * enclave's runnable threads so the new policy can rebuild its run
     * queue — the host kernel is the source of truth (§6).
     */
    void RestartAgent() { supervisor_->Replace(); }

    /** Number of agent generations started (1 after Start()). */
    int Generation() const { return generation_; }

    bool
    AgentAlive() const
    {
        return generation_ > 0 && runtime_.AgentAlive(agent_id_);
    }

    KernelSched& Kernel() { return *kernel_; }

  private:
    /** Starts a fresh-policy agent on this enclave's placement. */
    SupervisedAgent StartAgentGeneration();

    WaveRuntime& runtime_;
    EnclaveConfig config_;
    std::unique_ptr<SchedTransport> transport_;
    std::unique_ptr<KernelSched> kernel_;
    std::optional<AgentSupervisor> supervisor_;
    AgentId agent_id_ = 0;
    int generation_ = 0;
};

}  // namespace wave::ghost
