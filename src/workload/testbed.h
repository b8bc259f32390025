/**
 * @file
 * One simulated machine's scheduling stack, built the same way for
 * every harness.
 *
 * The ghOSt kernel class, the agent and the policy are identical across
 * the paper's deployments (§7.2); only the transport and the agent's
 * placement change. Testbed builds that stack in stages. Each harness
 * calls them in its own spawn order and slots its own parts (an RPC
 * stack, an offload pipeline, pinned vCPU threads) in between:
 *
 *   Testbed bed(config);            // sim, machine, runtime, transport, kernel
 *   bed.StartAgent(policy, agent);  // NIC core 0, or host core worker_cores
 *   bed.Supervise(timeout, check);  // optional: watchdog + host fallback
 *   bed.AddService(num_workers);    // KV workers, tids from 1000
 *   bed.Start();                    // kernel core loops
 *   bed.SpawnLoad(load);            // open-loop KV load
 *   bed.ArmFaults();                // the config's fault schedule
 *   bed.Sim().RunUntil(end);
 *
 * The builder attaches no checker itself: the Wave transport and the
 * supervisor's watchdog bind to the runtime's checkers on their own.
 */
// wave-domain: host
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/supervisor.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "pcie/config.h"
#include "sched/shinjuku.h"
#include "sim/inject.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/loadgen.h"

namespace wave::workload {

/** Which scheduling policy the experiment runs. */
enum class PolicyKind {
    kFifo,
    kShinjuku,
    kMultiQueueShinjuku,
};

/** Where the agent runs. */
enum class Deployment {
    kOnHost,  ///< agent on a dedicated host core, shared-memory queues
    kWave,    ///< agent on a SmartNIC core, PCIe queues (offloaded)
};

/** The policy for @p kind; @p slice_ns is the Shinjuku preemption slice. */
std::shared_ptr<ghost::SchedPolicy> MakeSchedPolicy(PolicyKind kind,
                                                    sim::DurationNs slice_ns);

/** What varies between the harnesses' deployments. */
struct TestbedConfig {
    Deployment placement = Deployment::kWave;

    /** Host cores 0..n-1 run workers; core n hosts the agent or fallback. */
    int worker_cores = 15;

    /** Host cores past those (rpc's OnHost-All protocol stack). */
    int extra_host_cores = 0;

    /** SmartNIC cores (0 = MachineConfig default). */
    int nic_cores = 0;

    /** NIC core speed (0 = MachineConfig default). */
    double nic_speed = 0.0;

    pcie::PcieConfig pcie = {};
    api::OptimizationConfig opt = api::OptimizationConfig::Full();
    ghost::KernelOptions kernel = {};

    /** Armed by ArmFaults(); an injector exists only when non-empty. */
    std::vector<sim::inject::FaultSpec> faults;
};

/** The scheduling stack of one simulated machine. */
class Testbed {
  public:
    /** Builds the simulator, machine, runtime, transport and kernel. */
    explicit Testbed(TestbedConfig config);

    // Hooks and handlers the builder installs hold its address.
    Testbed(const Testbed&) = delete;
    Testbed& operator=(const Testbed&) = delete;

    /**
     * Starts the agent for @p policy on NIC core 0 (Wave) or on host
     * core worker_cores (On-Host). The agent schedules every worker
     * core, and kicks the host unless the kernel polls when idle.
     */
    void StartAgent(std::shared_ptr<ghost::SchedPolicy> policy,
                    ghost::AgentConfig agent);

    /**
     * Puts the Wave agent under a watchdog that samples its progress
     * every @p check_interval. After @p timeout without progress a
     * CFS-lite agent (no prestaging, no aux stage) takes over on host
     * core worker_cores over the same transport (§3.3).
     */
    void Supervise(sim::DurationNs timeout, sim::DurationNs check_interval);

    /**
     * Registers @p num_workers KV worker threads (tids from 1000). A
     * multi-queue Shinjuku policy learns each assigned request's SLO.
     */
    KvService& AddService(int num_workers);

    /** Starts the kernel's loops on the worker cores. */
    void Start();

    /** Spawns the open-loop KV load generator. */
    void SpawnLoad(const LoadGenConfig& load);

    /**
     * Arms the fault schedule. Agent crash and stall act on the Wave
     * agent; NIC slowdown scales the NIC domain's speed for its window.
     */
    void ArmFaults();

    sim::Simulator& Sim() { return sim_; }
    machine::Machine& Machine() { return machine_; }
    WaveRuntime& Runtime() { return runtime_; }
    ghost::SchedTransport& Transport() { return *transport_; }
    ghost::KernelSched& Kernel() { return *kernel_; }
    ghost::GhostAgent& Agent() { return *agent_; }

    /** Null when the fault schedule is empty. */
    const sim::inject::FaultInjector* Injector() const
    {
        return injector_ ? &*injector_ : nullptr;
    }

    /** Null unless Supervise() was called. */
    const ghost::AgentSupervisor* Supervisor() const
    {
        return supervisor_ ? &*supervisor_ : nullptr;
    }

  private:
    // Declaration order is construction order; the simulator is
    // destroyed last, after everything that spawned into it.
    sim::Simulator sim_;
    TestbedConfig config_;
    std::vector<int> worker_cores_;
    machine::Machine machine_;
    WaveRuntime runtime_;
    std::optional<sim::inject::FaultInjector> injector_;
    std::unique_ptr<ghost::SchedTransport> transport_;
    std::optional<ghost::KernelSched> kernel_;
    ghost::AgentConfig agent_config_;
    ghost::GhostAgent* agent_ = nullptr;  ///< owned by its runtime slot
    AgentId agent_id_ = 0;
    sched::MultiQueueShinjukuPolicy* slo_policy_ = nullptr;
    std::optional<ghost::AgentSupervisor> supervisor_;
    std::optional<KvService> service_;
};

}  // namespace wave::workload
