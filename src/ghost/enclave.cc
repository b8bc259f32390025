// wave-domain: host
#include "ghost/enclave.h"

#include "check/hooks.h"

namespace wave::ghost {

namespace {

/** Watchdog poll period, which is also the feed task's sampling period. */
constexpr sim::DurationNs kWatchdogIntervalNs = 1'000'000;

}  // namespace

Enclave::Enclave(WaveRuntime& runtime, EnclaveConfig config)
    : runtime_(runtime), config_(std::move(config))
{
    WAVE_ASSERT(!config_.cores.empty(), "enclave with no cores");
    WAVE_ASSERT(config_.policy_factory != nullptr,
                "enclave needs a policy factory");
    if (config_.offloaded) {
        // The Wave binding wires its queues/txn endpoints into the
        // runtime's checkers itself.
        transport_ = std::make_unique<WaveSchedTransport>(runtime_,
                                                          config_.cores);
    } else {
        auto shm = std::make_unique<ShmSchedTransport>(runtime_.Sim(),
                                                       config_.cores);
        WAVE_CHECK_HOOK(
            shm->AttachCheckers(runtime_.Hb(), runtime_.Protocol()));
        transport_ = std::move(shm);
    }
    kernel_ = std::make_unique<KernelSched>(runtime_.Sim(),
                                            runtime_.GetMachine(),
                                            *transport_);
    WAVE_CHECK_HOOK(kernel_->AttachProtocol(runtime_.Protocol()));
    // A restart is a replacement that stays under the watchdog (§6).
    supervisor_.emplace(runtime_, *kernel_, config_.watchdog_timeout_ns,
                        kWatchdogIntervalNs,
                        [this] { return StartAgentGeneration(); });
}

SupervisedAgent
Enclave::StartAgentGeneration()
{
    AgentConfig agent;
    agent.cores = config_.cores;
    auto fresh = std::make_shared<GhostAgent>(
        *transport_, config_.policy_factory(), std::move(agent));
    machine::Machine& machine = runtime_.GetMachine();
    agent_id_ = runtime_.StartWaveAgent(
        fresh, config_.offloaded ? machine.NicCpu(config_.nic_core)
                                 : machine.HostCpu(config_.host_agent_core));
    ++generation_;
    return {agent_id_, fresh.get()};
}

void
Enclave::Start()
{
    const SupervisedAgent first = StartAgentGeneration();
    kernel_->Start(config_.cores);
    supervisor_->Supervise(first);
}

}  // namespace wave::ghost
