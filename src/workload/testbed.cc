// wave-domain: host
#include "workload/testbed.h"

#include <algorithm>
#include <utility>

#include "sched/cfs_lite.h"
#include "sched/fifo.h"
#include "sim/logging.h"

namespace wave::workload {

namespace {

using sim::inject::FaultKind;
using sim::inject::FaultSpec;

machine::MachineConfig
MachineFor(const TestbedConfig& config)
{
    machine::MachineConfig mc;
    mc.host_cores = config.worker_cores + 1 + config.extra_host_cores;
    if (config.nic_cores > 0) mc.nic_cores = config.nic_cores;
    if (config.nic_speed > 0) mc.nic_speed = config.nic_speed;
    return mc;
}

}  // namespace

std::shared_ptr<ghost::SchedPolicy>
MakeSchedPolicy(PolicyKind kind, sim::DurationNs slice_ns)
{
    switch (kind) {
      case PolicyKind::kFifo:
        return std::make_shared<sched::FifoPolicy>();
      case PolicyKind::kShinjuku:
        return std::make_shared<sched::ShinjukuPolicy>(slice_ns);
      case PolicyKind::kMultiQueueShinjuku:
      default:
        return std::make_shared<sched::MultiQueueShinjukuPolicy>(slice_ns);
    }
}

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      machine_(sim_, MachineFor(config_)),
      runtime_(sim_, machine_, config_.pcie, config_.opt)
{
    for (int i = 0; i < config_.worker_cores; ++i) worker_cores_.push_back(i);

    // The injector must be attached before the transport exists so the
    // MSI-X vectors and txn endpoints created inside bind to it.
    if (!config_.faults.empty()) {
        injector_.emplace(sim_);
        runtime_.AttachInjector(&*injector_);
    }
    if (config_.placement == Deployment::kWave) {
        transport_ = std::make_unique<ghost::WaveSchedTransport>(
            runtime_, config_.worker_cores);
    } else {
        transport_ = std::make_unique<ghost::ShmSchedTransport>(
            sim_, config_.worker_cores);
    }
    kernel_.emplace(sim_, machine_, *transport_, ghost::GhostCosts{},
                    config_.kernel);
    if (injector_) kernel_->SetFaultInjector(&*injector_);
}

void
Testbed::StartAgent(std::shared_ptr<ghost::SchedPolicy> policy,
                    ghost::AgentConfig agent)
{
    agent.cores = worker_cores_;
    agent.use_kicks = !config_.kernel.poll_idle;
    slo_policy_ =
        dynamic_cast<sched::MultiQueueShinjukuPolicy*>(policy.get());
    agent_config_ = agent;
    auto ghost_agent = std::make_shared<ghost::GhostAgent>(
        *transport_, std::move(policy), std::move(agent));
    agent_ = ghost_agent.get();
    agent_id_ = runtime_.StartWaveAgent(
        std::move(ghost_agent), config_.placement == Deployment::kWave
                                    ? machine_.NicCpu(0)
                                    : machine_.HostCpu(config_.worker_cores));
}

void
Testbed::Supervise(sim::DurationNs timeout, sim::DurationNs check_interval)
{
    WAVE_ASSERT(config_.placement == Deployment::kWave,
                "only a Wave agent can be supervised");
    supervisor_.emplace(
        runtime_, *kernel_, timeout, check_interval,
        [this]() -> std::optional<ghost::SupervisedAgent> {
            // Host fallback: kernel-side CFS-class scheduling over the
            // same state, as in §3.3 ("falls back to on-host system
            // software"). Prestaging is an offload optimization and the
            // aux stage stays with the NIC; the fallback runs plain and
            // unsupervised.
            ghost::AgentConfig fallback = agent_config_;
            fallback.prestage = false;
            fallback.aux_stage = nullptr;
            runtime_.StartWaveAgent(
                std::make_shared<ghost::GhostAgent>(
                    *transport_, std::make_shared<sched::CfsLitePolicy>(),
                    fallback),
                machine_.HostCpu(config_.worker_cores));
            return std::nullopt;
        });
    supervisor_->Supervise({agent_id_, agent_});
}

KvService&
Testbed::AddService(int num_workers)
{
    // The hook reads the policy at call time: rpc registers its workers
    // before it starts the agent.
    service_.emplace(sim_, *kernel_, num_workers, /*first_tid=*/1000,
                     [this](ghost::Tid tid, std::uint32_t slo) {
                         if (slo_policy_ != nullptr) {
                             slo_policy_->SetThreadSlo(tid, slo);
                         }
                     });
    return *service_;
}

void
Testbed::Start()
{
    kernel_->Start(worker_cores_);
}

void
Testbed::SpawnLoad(const LoadGenConfig& load)
{
    sim_.Spawn(RunLoadGenerator(sim_, *service_, load));
}

void
Testbed::ArmFaults()
{
    if (!injector_) return;
    const double nic_base_speed = machine_.NicDomain().Speed();
    injector_->SetActionHandler([this, nic_base_speed](const FaultSpec& f,
                                                       bool begin) {
        switch (f.kind) {
          case FaultKind::kAgentCrash:
            if (begin) runtime_.KillWaveAgent(agent_id_);
            break;
          case FaultKind::kAgentStall:
            if (begin) runtime_.StallWaveAgent(agent_id_, f.duration);
            break;
          case FaultKind::kNicSlowdown: {
            const double scale =
                static_cast<double>(std::max<std::uint64_t>(f.param, 1)) /
                1000.0;
            machine_.NicDomain().SetSpeed(begin ? nic_base_speed * scale
                                                : nic_base_speed);
            break;
          }
          default:
            break;
        }
    });
    injector_->Arm(config_.faults);
}

}  // namespace wave::workload
