/**
 * @file
 * Example: fault recovery — the watchdog kills a wedged SmartNIC agent
 * and a replacement takes over (§3.3, §6 "Keep Fault Recovery Simple").
 *
 * The host kernel is the source of truth for thread state, so the
 * replacement agent needs no checkpoint: the AgentSupervisor has the
 * kernel re-announce every runnable thread, the replacement re-learns
 * the world from those messages and scheduling resumes for all of them.
 *
 * Build & run:  ./build/examples/agent_recovery
 */
#include <array>
#include <cstdio>
#include <numeric>
#include <optional>

#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/supervisor.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "sched/fifo.h"
#include "sim/simulator.h"
#include "wave/runtime.h"

using namespace wave;
using namespace sim::time_literals;

namespace {

constexpr ghost::Tid kThreads = 8;

/** Worker that reports completions. */
class Worker : public ghost::ThreadBody {
  public:
    explicit Worker(int& completions) : completions_(completions) {}

    sim::Task<ghost::RunStop>
    Run(ghost::RunContext& ctx) override
    {
        sim::DurationNs remaining = 10'000;
        while (remaining > 0) {
            const auto ran =
                co_await ctx.interrupt.SleepInterruptible(remaining);
            remaining -= std::min(ran, remaining);
            if (remaining > 0) co_return ghost::RunStop::kPreempted;
        }
        ++completions_;
        co_return ghost::RunStop::kYielded;  // stay runnable forever
    }

  private:
    int& completions_;
};

}  // namespace

int
main()
{
    sim::Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    ghost::WaveSchedTransport transport(runtime, 2);
    ghost::KernelSched kernel(sim, machine, transport);

    std::array<int, kThreads + 1> completions{};  // indexed by tid
    for (ghost::Tid tid = 1; tid <= kThreads; ++tid) {
        kernel.AddThread(tid, std::make_shared<Worker>(completions[tid]));
    }
    auto total = [&] {
        return std::accumulate(completions.begin(), completions.end(), 0);
    };

    ghost::AgentConfig agent_cfg;
    agent_cfg.cores = {0, 1};

    // Each generation is a fresh FIFO agent on its own NIC core.
    int next_nic_core = 0;
    auto start_agent = [&] {
        auto agent = std::make_shared<ghost::GhostAgent>(
            transport, std::make_shared<sched::FifoPolicy>(), agent_cfg);
        return ghost::SupervisedAgent{
            runtime.StartWaveAgent(agent, next_nic_core++), agent.get()};
    };
    const ghost::SupervisedAgent gen1 = start_agent();
    kernel.Start({0, 1});

    // The on-host watchdog: no agent progress for >20 ms -> kill, start
    // a replacement (kept under the watchdog), re-announce the threads.
    std::array<int, kThreads + 1> at_recovery{};
    ghost::AgentSupervisor supervisor(
        runtime, kernel, /*timeout=*/20_ms, /*check_interval=*/1_ms,
        [&]() -> std::optional<ghost::SupervisedAgent> {
            std::printf("[%8.3f ms] watchdog fired: killing agent, "
                        "starting replacement\n",
                        sim::ToMs(sim.Now()));
            at_recovery = completions;
            return start_agent();
        });
    supervisor.Supervise(gen1);

    // Wedge the agent at 2 ms: alive, but it stops iterating.
    sim.Schedule(2_ms, [&] {
        std::printf("[%8.3f ms] agent wedges (no more decisions)\n",
                    sim::ToMs(sim.Now()));
        runtime.StallWaveAgent(gen1.id, 1'000_ms);
    });

    sim.RunFor(10_ms);
    const int before_recovery = total();
    std::printf("[%8.3f ms] completions so far: %d (stalled)\n",
                sim::ToMs(sim.Now()), before_recovery);

    sim.RunFor(50_ms);
    std::printf("[%8.3f ms] completions after recovery: %d\n",
                sim::ToMs(sim.Now()), total());
    int resumed = 0;
    for (ghost::Tid tid = 1; tid <= kThreads; ++tid) {
        if (completions[tid] > at_recovery[tid]) ++resumed;
    }
    std::printf("threads scheduled after recovery: %d of %d\n", resumed,
                kThreads);
    std::printf("\nrecovered: %s (watchdog expired: %s)\n",
                total() > before_recovery ? "yes" : "no",
                supervisor.Stats().expiries > 0 ? "yes" : "no");
    return 0;
}
