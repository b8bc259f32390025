/**
 * @file
 * Example: tickless VM scheduling and the turbo dividend (§7.2.4).
 *
 * One busy vCPU on a mostly idle socket: the on-host scheduler needs
 * 1 ms ticks on every core (keeping idle cores in shallow sleep), the
 * Wave scheduler on the SmartNIC needs none. This example prints the
 * busy vCPU's attained work under both and the resulting boost.
 *
 * Build & run:  ./build/examples/vm_turbo
 */
#include <cstdio>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "machine/turbo.h"
#include "sched/vm_policy.h"
#include "sim/simulator.h"
#include "wave/runtime.h"
#include "workload/busy_loop.h"

using namespace wave;

namespace {

double
RunTrial(bool ticks)
{
    sim::Simulator sim;
    machine::MachineConfig mc;
    mc.host_cores = 17;  // 16 VM cores + 1 for a possible host agent
    machine::Machine machine(sim, mc);

    machine::TurboModel turbo;
    const machine::FreqGhz freq =
        turbo.Frequency(/*active=*/1, /*idle_cores_deep=*/!ticks);
    machine.HostDomain().SetSpeed(freq.RatioTo(machine::kReferenceFreq));

    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    std::unique_ptr<ghost::SchedTransport> transport;
    if (ticks) {
        transport = std::make_unique<ghost::ShmSchedTransport>(sim, 16);
    } else {
        transport =
            std::make_unique<ghost::WaveSchedTransport>(runtime, 16);
    }
    ghost::KernelOptions options;
    options.timer_ticks = ticks;
    ghost::KernelSched kernel(sim, machine, *transport,
                              ghost::GhostCosts{}, options);

    auto policy = std::make_shared<sched::VmPolicy>();
    ghost::AgentConfig cfg;
    for (int c = 0; c < 16; ++c) cfg.cores.push_back(c);
    cfg.prestage = false;
    runtime.StartWaveAgent(
        std::make_shared<ghost::GhostAgent>(*transport, policy, cfg),
        ticks ? machine.HostCpu(16) : machine.NicCpu(0));

    // One busy vCPU on core 0; idle vCPUs pinned everywhere else.
    auto busy = std::make_shared<workload::BusyLoopBody>();
    policy->PinVcpu(100, 0);
    kernel.AddThread(100, busy);
    for (int c = 1; c < 16; ++c) {
        policy->PinVcpu(100 + c, c);
        kernel.AddThread(100 + c,
                         std::make_shared<workload::IdleVcpuBody>());
    }
    std::vector<int> cores;
    for (int c = 0; c < 16; ++c) cores.push_back(c);
    kernel.Start(cores);

    sim.RunFor(100'000'000);  // 100 ms
    return sim::ToSec(busy->BusyNs()) * freq.ghz();  // GHz-seconds of work
}

}  // namespace

int
main()
{
    const double with_ticks = RunTrial(/*ticks=*/true);
    const double no_ticks = RunTrial(/*ticks=*/false);
    std::printf("busy vCPU work in 100 ms:\n");
    std::printf("  on-host ghOSt (1 ms ticks, shallow idle): %.4f GHz-s\n",
                with_ticks);
    std::printf("  Wave on SmartNIC (tickless, deep idle):   %.4f GHz-s\n",
                no_ticks);
    std::printf("  improvement: %+.1f%%  (paper Fig 5b: +11.2%%)\n",
                (no_ticks / with_ticks - 1.0) * 100.0);
    return 0;
}
