/**
 * @file
 * Cross-module integration tests: full Wave deployments under load,
 * fault injection (agent wedge -> watchdog kill -> replacement agent
 * re-pulls state), coherent-interconnect deployments, and end-to-end
 * invariants (no request lost, no thread double-run).
 */
#include <gtest/gtest.h>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/supervisor.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "sched/fifo.h"
#include "sched/shinjuku.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/loadgen.h"
#include "workload/sched_experiment.h"

namespace wave {
namespace {

using namespace sim::time_literals;
using sim::Simulator;

/** Full Wave KV deployment with direct access to every layer. */
struct WaveWorld {
    explicit WaveWorld(int cores = 4, int workers = 16)
        : machine(sim),
          runtime(sim, machine, pcie::PcieConfig{},
                  api::OptimizationConfig::Full()),
          transport(runtime, cores),
          kernel(sim, machine, transport),
          policy(std::make_shared<sched::FifoPolicy>()),
          service(sim, kernel, workers)
    {
        for (int i = 0; i < cores; ++i) worker_cores.push_back(i);
    }

    AgentId
    StartAgent(int nic_core)
    {
        ghost::AgentConfig cfg;
        cfg.cores = worker_cores;
        cfg.prestage_min_depth = 2;
        agent = std::make_shared<ghost::GhostAgent>(transport, policy,
                                                    cfg);
        return runtime.StartWaveAgent(agent, nic_core);
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
    ghost::WaveSchedTransport transport;
    ghost::KernelSched kernel;
    std::shared_ptr<sched::FifoPolicy> policy;
    std::shared_ptr<ghost::GhostAgent> agent;
    workload::KvService service;
    std::vector<int> worker_cores;
};

TEST(Integration, AgentWedgeWatchdogRestartKeepsServing)
{
    WaveWorld world;
    const AgentId gen1 = world.StartAgent(0);
    world.kernel.Start(world.worker_cores);

    workload::LoadGenConfig lg;
    lg.rate_rps = 50'000;
    lg.end_time = sim::TimeNs{200_ms};
    world.sim.Spawn(
        workload::RunLoadGenerator(world.sim, world.service, lg));

    // Watchdog restart: the supervisor kills the agent, starts a fresh
    // agent with a FRESH policy on NIC core 1 and keeps it supervised,
    // then has the kernel re-announce every runnable thread so the
    // replacement re-learns them (source-of-truth re-pull).
    ghost::AgentSupervisor supervisor(
        world.runtime, world.kernel, 20_ms, 1_ms, [&] {
            world.policy = std::make_shared<sched::FifoPolicy>();
            const AgentId id = world.StartAgent(1);
            return ghost::SupervisedAgent{id, world.agent.get()};
        });
    supervisor.Supervise({gen1, world.agent.get()});

    // At 30 ms a burst of 1 ms requests wakes every worker: four run,
    // the rest queue in the agent's run queue. Then the agent wedges
    // without telling anyone, and only a re-announce reaches the workers
    // still queued in its run queue.
    world.sim.Schedule(30_ms, [&] {
        for (int i = 0; i < 16; ++i) {
            world.service.Submit(workload::Request{
                .arrival = world.sim.Now(), .service_ns = 1_ms});
        }
    });
    world.sim.Schedule(30_ms + 50_us, [&] {
        ASSERT_GT(world.policy->RunQueueDepth(), 0u);
        world.runtime.KillWaveAgent(gen1);
    });

    world.sim.RunUntil(sim::TimeNs{60_ms});
    const std::uint64_t at_mid = world.service.Completed();
    EXPECT_EQ(supervisor.Stats().expiries, 1u)
        << "watchdog should have fired by now";

    world.sim.RunUntil(sim::TimeNs{200_ms});
    EXPECT_GT(world.service.Completed(), at_mid + 1000)
        << "service must keep completing requests after recovery";

    // Every worker ran again: once the load drains, none is left
    // runnable in the dead agent's run queue.
    world.sim.RunUntil(sim::TimeNs{210_ms});
    EXPECT_EQ(world.service.PendingDepth(), 0u);
    for (const auto& [tid, rec] : world.kernel.Threads().All()) {
        EXPECT_EQ(rec.state, ghost::ThreadState::kBlocked)
            << "worker " << tid << " was stranded";
    }
}

TEST(Integration, UpiDeploymentServesLoad)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.pcie = pcie::PcieConfig::Upi();
    cfg.nic_speed = 3.0 / 3.5;  // emulated x86 "SmartNIC" socket
    cfg.worker_cores = 8;
    cfg.num_workers = 32;
    cfg.offered_rps = 200'000;
    cfg.warmup_ns = 10_ms;
    cfg.measure_ns = 80_ms;
    const auto r = workload::RunSchedExperiment(cfg);
    EXPECT_NEAR(r.achieved_rps, 200'000, 10'000);
    EXPECT_LT(r.get_p99, 100'000u);
}

TEST(Integration, UpiBeatsPcieAtEqualCores)
{
    auto run = [](pcie::PcieConfig pc, double nic_speed) {
        workload::SchedExperimentConfig cfg;
        cfg.deployment = workload::Deployment::kWave;
        cfg.pcie = pc;
        cfg.nic_speed = nic_speed;
        cfg.worker_cores = 8;
        cfg.num_workers = 48;
        cfg.offered_rps = 600'000;  // near saturation
        cfg.warmup_ns = 10_ms;
        cfg.measure_ns = 80_ms;
        return workload::RunSchedExperiment(cfg);
    };
    const auto upi = run(pcie::PcieConfig::Upi(), 3.0 / 3.5);
    const auto pcie_nic = run(pcie::PcieConfig{}, 0.61);
    EXPECT_LE(upi.get_p99.ToDouble(), pcie_nic.get_p99.ToDouble() * 1.05)
        << "a coherent interconnect must not be worse (§7.3.3)";
}

TEST(Integration, EveryCommittedDecisionRunsExactlyOneThread)
{
    // Conservation check: over a steady run, completed requests can
    // never exceed successful commits (each wake->run consumes one),
    // and failed commits stay rare.
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.worker_cores = 8;
    cfg.num_workers = 32;
    cfg.offered_rps = 300'000;
    cfg.warmup_ns = 0;
    cfg.measure_ns = 100_ms;
    const auto r = workload::RunSchedExperiment(cfg);
    EXPECT_GT(r.completed, 25'000u);
    EXPECT_LT(r.commits_failed * 50, r.agent_decisions + 1);
}

TEST(Integration, ShinjukuBoundsGetTailUnderRangeStorm)
{
    // 2% 10ms RANGEs would monopolize 8 cores without preemption;
    // Shinjuku's 30 us slice keeps GETs flowing.
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.policy = workload::PolicyKind::kShinjuku;
    cfg.worker_cores = 8;
    cfg.num_workers = 48;
    cfg.get_fraction = 0.98;
    cfg.offered_rps = 25'000;
    cfg.warmup_ns = 20_ms;
    cfg.measure_ns = 150_ms;
    const auto r = workload::RunSchedExperiment(cfg);
    EXPECT_GT(r.preemptions, 500u);
    EXPECT_LT(r.get_p99, 300'000u)
        << "GET p99 must stay far below the 10 ms RANGE service time";
}

}  // namespace
}  // namespace wave
