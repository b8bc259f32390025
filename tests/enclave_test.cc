/**
 * @file
 * Tests for scheduling enclaves (§6) and the CFS-lite baseline policy:
 * partition isolation, watchdog-driven agent restart with state
 * re-pull, multi-enclave coexistence, and CFS fairness invariants.
 */
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <vector>

#include "ghost/enclave.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "sched/cfs_lite.h"
#include "sched/fifo.h"
#include "sched/vm_policy.h"
#include "workload/busy_loop.h"
#include "sim/simulator.h"
#include "wave/runtime.h"

namespace wave::ghost {
namespace {

using namespace sim::time_literals;
using sim::Simulator;
using sim::Task;

/** Worker that yields after fixed work, counting completions. */
class YieldingWorker : public ThreadBody {
  public:
    YieldingWorker(sim::DurationNs work, int& completions)
        : work_(work), completions_(completions)
    {
    }

    Task<RunStop>
    Run(RunContext& ctx) override
    {
        sim::DurationNs remaining = work_;
        while (remaining > 0) {
            const auto ran =
                co_await ctx.interrupt.SleepInterruptible(remaining);
            remaining -= std::min(ran, remaining);
            if (remaining > 0) co_return RunStop::kPreempted;
        }
        ++completions_;
        co_return RunStop::kYielded;
    }

  private:
    sim::DurationNs work_;
    int& completions_;
};

struct EnclaveWorld {
    EnclaveWorld()
        : machine(sim),
          runtime(sim, machine, pcie::PcieConfig{},
                  api::OptimizationConfig::Full())
    {
    }

    EnclaveConfig
    MakeConfig(std::vector<int> cores, int nic_core)
    {
        EnclaveConfig config;
        config.cores = std::move(cores);
        config.nic_core = nic_core;
        config.policy_factory = [] {
            return std::make_shared<sched::FifoPolicy>();
        };
        return config;
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
};

TEST(Enclave, TwoEnclavesScheduleIndependently)
{
    EnclaveWorld world;
    Enclave left(world.runtime, world.MakeConfig({0, 1}, 0));
    Enclave right(world.runtime, world.MakeConfig({2, 3}, 1));

    int left_done = 0;
    int right_done = 0;
    for (Tid tid = 1; tid <= 4; ++tid) {
        left.AddThread(tid,
                       std::make_shared<YieldingWorker>(5_us, left_done));
        right.AddThread(100 + tid, std::make_shared<YieldingWorker>(
                                       5_us, right_done));
    }
    left.Start();
    right.Start();
    world.sim.RunFor(2_ms);

    EXPECT_GT(left_done, 100) << "left enclave must make progress";
    EXPECT_GT(right_done, 100) << "right enclave must make progress";
    EXPECT_TRUE(left.AgentAlive());
    EXPECT_TRUE(right.AgentAlive());
}

TEST(Enclave, WatchdogRestartsWedgedAgentAndReannouncesThreads)
{
    EnclaveWorld world;
    Enclave enclave(world.runtime, world.MakeConfig({0, 1}, 0));

    int completions = 0;
    for (Tid tid = 1; tid <= 6; ++tid) {
        enclave.AddThread(
            tid, std::make_shared<YieldingWorker>(10_us, completions));
    }
    enclave.Start();
    ASSERT_EQ(enclave.Generation(), 1);
    world.sim.RunFor(5_ms);
    const int before = completions;
    EXPECT_GT(before, 0);

    // Wedge generation 1 behind the watchdog's back.
    world.runtime.KillWaveAgent(0);
    world.sim.RunFor(40_ms);  // > 20 ms watchdog timeout

    EXPECT_GE(enclave.Generation(), 2) << "watchdog must have restarted";
    EXPECT_TRUE(enclave.AgentAlive());
    world.sim.RunFor(10_ms);
    EXPECT_GT(completions, before)
        << "replacement agent must schedule the re-announced threads";
}

TEST(Enclave, OtherEnclaveUnaffectedByNeighborRestart)
{
    EnclaveWorld world;
    Enclave left(world.runtime, world.MakeConfig({0, 1}, 0));
    Enclave right(world.runtime, world.MakeConfig({2, 3}, 1));

    int left_done = 0;
    int right_done = 0;
    for (Tid tid = 1; tid <= 4; ++tid) {
        left.AddThread(tid,
                       std::make_shared<YieldingWorker>(10_us, left_done));
        right.AddThread(100 + tid, std::make_shared<YieldingWorker>(
                                       10_us, right_done));
    }
    left.Start();
    right.Start();
    world.sim.RunFor(2_ms);

    world.runtime.KillWaveAgent(0);  // wedge the left agent
    world.sim.RunFor(40_ms);

    EXPECT_GE(left.Generation(), 2);
    EXPECT_EQ(right.Generation(), 1)
        << "the right enclave must not be restarted";
    EXPECT_TRUE(right.AgentAlive());
    EXPECT_GT(right_done, 1000)
        << "the right enclave never stopped scheduling";
}

/** A FIFO policy that counts its PickNext() calls. */
class PickCountingFifo : public sched::FifoPolicy {
  public:
    explicit PickCountingFifo(std::uint64_t& picks) : picks_(picks) {}

    std::optional<GhostDecision>
    PickNext(int core, sim::TimeNs now) override
    {
        ++picks_;
        return FifoPolicy::PickNext(core, now);
    }

  private:
    std::uint64_t& picks_;
};

TEST(Enclave, RestartWhileTheKilledAgentPollsOutcomesMatchesItsGolden)
{
    // Kill and replace a 20-core enclave's agent while it waits on core
    // 17's outcome queue. The killed agent finishes that pass over the
    // same transport (three more polls and its loop overhead) while its
    // replacement starts polling from the same NIC core; with 20 cores
    // the replacement's first pass outlasts the rest of the killed one,
    // so their Work never overlaps. The run's event stream is pinned.
    constexpr int kCores = 20;
    sim::Simulator sim;
    machine::Machine machine(sim, machine::MachineConfig{.host_cores = 24});
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    std::uint64_t picks = 0;
    EnclaveConfig config;
    for (int core = 0; core < kCores; ++core) config.cores.push_back(core);
    config.policy_factory = [&picks] {
        return std::make_shared<PickCountingFifo>(picks);
    };
    Enclave enclave(runtime, config);
    int completions = 0;
    for (Tid tid = 1; tid <= 4; ++tid) {
        enclave.AddThread(
            tid, std::make_shared<YieldingWorker>(1_ms, completions));
    }
    enclave.Start();
    sim.RunFor(200_us);  // four cores busy, sixteen idle: idle passes

    // Every idle pass asks the policy for each idle core after its
    // outcome poll. From there, one event finishes the loop overhead,
    // one the next pass's message poll and 17 polls cores 0 to 16.
    const std::uint64_t picks0 = picks;
    while (picks == picks0) ASSERT_TRUE(sim.Step());
    const std::uint64_t pass_picks = picks;
    for (int i = 0; i < 2 + 17; ++i) ASSERT_TRUE(sim.Step());
    ASSERT_EQ(picks, pass_picks) << "the pass left its outcome poll";
    enclave.RestartAgent();
    sim.RunFor(3_ms);

    EXPECT_EQ(enclave.Generation(), 2);
    EXPECT_TRUE(enclave.AgentAlive());
    EXPECT_GE(completions, 4);
    // Captured with the per-core outcome poll, before the batched one.
    EXPECT_EQ(sim.EventHash(), 0x85b9ecc85b1d018cull);
}

/** A FIFO policy that counts its ShouldPreempt() calls. */
class PreemptCheckCountingFifo : public sched::FifoPolicy {
  public:
    explicit PreemptCheckCountingFifo(std::uint64_t& checks)
        : checks_(checks)
    {
    }

    bool
    ShouldPreempt(int core, Tid tid, sim::DurationNs ran_for) const override
    {
        ++checks_;
        return FifoPolicy::ShouldPreempt(core, tid, ran_for);
    }

  private:
    std::uint64_t& checks_;
};

TEST(Enclave, OnHostRestartStopsTheKilledAgentAndServesEveryThread)
{
    // The On-Host twin of the golden above: a 20-core enclave whose
    // agent runs on host core 20 is restarted while the agent waits on
    // core 17's outcome queue. Twenty threads run and four wait in the
    // killed agent's run queue. The killed agent must stop within one
    // pass, finishing it on live state (its runtime slot still holds
    // it), and the replacement must schedule the four re-announced
    // threads. With 20 cores the replacement's first pass outlasts the
    // rest of the killed one, so their Work on host core 20 never
    // overlaps.
    constexpr int kCores = 20;
    constexpr Tid kThreads = 24;
    sim::Simulator sim;
    machine::Machine machine(sim, machine::MachineConfig{.host_cores = 24});
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    std::uint64_t checks = 0;
    EnclaveConfig config;
    for (int core = 0; core < kCores; ++core) config.cores.push_back(core);
    config.offloaded = false;
    config.host_agent_core = kCores;
    config.policy_factory = [&checks] {
        return std::make_shared<PreemptCheckCountingFifo>(checks);
    };
    Enclave enclave(runtime, config);
    std::array<int, kThreads + 1> completions{};  // indexed by tid
    for (Tid tid = 1; tid <= kThreads; ++tid) {
        enclave.AddThread(tid, std::make_shared<YieldingWorker>(
                                   1_ms, completions[tid]));
    }
    enclave.Start();
    sim.RunFor(200_us);  // twenty threads run, four wait: idle passes

    // Every pass asks the policy about each busy core right after its
    // outcome poll; two such points a pass apart give the pass length.
    auto step_past_outcome_poll = [&] {
        const std::uint64_t checks0 = checks;
        while (checks == checks0) ASSERT_TRUE(sim.Step());
    };
    step_past_outcome_poll();
    const sim::TimeNs pass_begin = sim.Now();
    step_past_outcome_poll();
    const sim::DurationNs pass = sim.Now() - pass_begin;
    // From there, one event finishes the loop overhead, one the next
    // pass's message poll and 17 poll cores 0 to 16.
    const std::uint64_t pass_checks = checks;
    for (int i = 0; i < 2 + 17; ++i) ASSERT_TRUE(sim.Step());
    ASSERT_EQ(checks, pass_checks) << "the pass left its outcome poll";

    std::vector<Tid> waiting;
    for (const auto& [tid, rec] : enclave.Kernel().Threads().All()) {
        if (rec.state == ThreadState::kRunnable) waiting.push_back(tid);
    }
    ASSERT_EQ(waiting.size(), 4u);

    const sim::TimeNs restart = sim.Now();
    enclave.RestartAgent();
    while (runtime.AgentAlive(0) && sim.Now() - restart <= pass) {
        ASSERT_TRUE(sim.Step());
    }
    EXPECT_FALSE(runtime.AgentAlive(0))
        << "the killed agent outlived its pass";

    sim.RunFor(3_ms);
    EXPECT_EQ(enclave.Generation(), 2);
    EXPECT_TRUE(enclave.AgentAlive());
    for (const Tid tid : waiting) {
        EXPECT_GT(completions[tid], 0)
            << "re-announced thread " << tid << " never ran";
    }
}

}  // namespace
}  // namespace wave::ghost

namespace wave::sched {
namespace {

using ghost::GhostMessage;
using ghost::MsgType;
using ghost::Tid;

GhostMessage
Msg(MsgType type, Tid tid, std::uint64_t at = 0)
{
    GhostMessage m{};
    m.type = type;
    m.tid = tid;
    m.core = 0;
    m.payload = at;  // event timestamp, used for vruntime charging
    return m;
}

TEST(CfsLite, PicksLowestVruntimeFirst)
{
    CfsLitePolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));

    // Thread 1 runs 2 ms then yields; thread 2 has lower vruntime now.
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    ASSERT_EQ(d->tid, 1);
    policy.OnMessage(Msg(MsgType::kThreadYield, 1, 2'000'000));
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{2'000'000})->tid, 2);
}

TEST(CfsLite, SliceShrinksWithLoad)
{
    CfsLitePolicy policy(/*sched_latency=*/6'000'000,
                         /*min_granularity=*/750'000);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    EXPECT_EQ(policy.CurrentSlice(), 6'000'000u);
    for (Tid tid = 2; tid <= 4; ++tid) {
        policy.OnMessage(Msg(MsgType::kThreadCreated, tid));
    }
    EXPECT_EQ(policy.CurrentSlice(), 1'500'000u);
    for (Tid tid = 5; tid <= 20; ++tid) {
        policy.OnMessage(Msg(MsgType::kThreadCreated, tid));
    }
    EXPECT_EQ(policy.CurrentSlice(), 750'000u) << "min granularity floor";
}

TEST(CfsLite, HeavierThreadsAgeSlower)
{
    CfsLitePolicy policy;
    policy.SetWeight(1, 2048);  // double weight
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));

    // Both run 2 ms each.
    auto first = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(first.has_value());
    policy.OnMessage(Msg(MsgType::kThreadYield, first->tid, 2'000'000));
    auto second = policy.PickNext(0, sim::TimeNs{2'000'000});
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(second->tid, first->tid);
    policy.OnMessage(Msg(MsgType::kThreadYield, second->tid, 4'000'000));

    EXPECT_LT(policy.Vruntime(1), policy.Vruntime(2))
        << "the weighted thread accrues vruntime at half rate";
}

TEST(CfsLite, PreemptsOnlyPastTheFairSlice)
{
    CfsLitePolicy policy(6'000'000, 750'000);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    ASSERT_TRUE(policy.PickNext(0, sim::TimeNs{0}).has_value());
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    // One waiter: slice = 6 ms.
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 3'000'000));
    EXPECT_TRUE(policy.ShouldPreempt(0, 1, 7'000'000));
}

TEST(CfsLite, FairnessOverManyRounds)
{
    // Two equal threads alternating must split CPU ~evenly.
    CfsLitePolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));

    std::uint64_t ran[3] = {0, 0, 0};
    std::uint64_t now = 0;
    for (int round = 0; round < 100; ++round) {
        auto d = policy.PickNext(0, sim::TimeNs{now});
        ASSERT_TRUE(d.has_value());
        // Uneven bursts: tid 1 runs 3 ms at a time, tid 2 runs 1 ms.
        const std::uint64_t burst =
            d->tid == 1 ? 3'000'000 : 1'000'000;
        now += burst;
        ran[d->tid] += burst;
        policy.OnMessage(Msg(MsgType::kThreadYield, d->tid, now));
    }
    const double ratio = static_cast<double>(ran[1]) /
                         static_cast<double>(ran[2]);
    EXPECT_NEAR(ratio, 1.0, 0.15)
        << "equal-weight threads must receive ~equal CPU";
}

TEST(CfsLite, DeadThreadsLeaveTheQueue)
{
    CfsLitePolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    policy.OnMessage(Msg(MsgType::kThreadDead, 1));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->tid, 2);
    EXPECT_FALSE(policy.PickNext(0, sim::TimeNs{0}).has_value());
}

}  // namespace
}  // namespace wave::sched

namespace wave::ghost {
namespace {

/** Busy body that tracks its accumulated run time. */
class MeteredBusyBody : public ThreadBody {
  public:
    Task<RunStop>
    Run(RunContext& ctx) override
    {
        for (;;) {
            const auto ran =
                co_await ctx.interrupt.SleepInterruptible(500'000);
            ran_ns_ += ran;
            if (ctx.interrupt.Pending()) co_return RunStop::kPreempted;
        }
    }

    sim::DurationNs RanNs() const { return ran_ns_; }

  private:
    sim::DurationNs ran_ns_ = 0;
};

TEST(CfsLiteEndToEnd, TwoBusyThreadsShareACoreFairly)
{
    // Full stack: CFS-lite inside a Wave agent, preempting via MSI-X at
    // its fair slice, must split one core ~50/50 between two hogs.
    EnclaveWorld world;
    EnclaveConfig config;
    config.cores = {0};
    config.nic_core = 0;
    config.watchdog_timeout_ns = 0;  // irrelevant here
    config.policy_factory = [] {
        return std::make_shared<sched::CfsLitePolicy>(
            /*sched_latency=*/2'000'000, /*min_granularity=*/500'000);
    };
    Enclave enclave(world.runtime, config);

    auto a = std::make_shared<MeteredBusyBody>();
    auto b = std::make_shared<MeteredBusyBody>();
    enclave.AddThread(1, a);
    enclave.AddThread(2, b);
    enclave.Start();
    world.sim.RunFor(100'000'000);  // 100 ms

    const double total =
        (a->RanNs() + b->RanNs()).ToDouble();
    EXPECT_GT(total, 80'000'000.0) << "the core must be mostly busy";
    const double share_a = a->RanNs().ToDouble() / total;
    EXPECT_NEAR(share_a, 0.5, 0.1)
        << "equal-weight threads split the core evenly";
    EXPECT_GT(enclave.Kernel().Stats().preemptions, 20u)
        << "sharing happens through slice preemptions";
}

}  // namespace
}  // namespace wave::ghost

namespace wave::ghost {
namespace {

using wave::workload::BusyLoopBody;
using wave::workload::IdleVcpuBody;

/** Mini Figure 5: ticks steal cycles from a busy vCPU. */
TEST(VmScheduling, TicklessVcpuGetsMoreCycles)
{
    auto run = [](bool ticks) {
        sim::Simulator sim;
        machine::Machine machine(sim);
        WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                            api::OptimizationConfig::Full());
        WaveSchedTransport transport(runtime, 4);
        KernelOptions options;
        options.timer_ticks = ticks;
        KernelSched kernel(sim, machine, transport, GhostCosts{},
                           options);
        auto policy = std::make_shared<sched::VmPolicy>();
        AgentConfig cfg;
        cfg.cores = {0, 1, 2, 3};
        cfg.prestage = false;
        auto agent =
            std::make_shared<GhostAgent>(transport, policy, cfg);
        runtime.StartWaveAgent(agent, 0);

        auto busy = std::make_shared<BusyLoopBody>();
        policy->PinVcpu(1, 0);
        kernel.AddThread(1, busy);
        for (Tid tid = 2; tid <= 4; ++tid) {
            policy->PinVcpu(tid, tid - 1);
            kernel.AddThread(tid, std::make_shared<IdleVcpuBody>());
        }
        kernel.Start({0, 1, 2, 3});
        sim.RunFor(50'000'000);  // 50 ms
        return std::pair{busy->BusyNs(),
                         kernel.Stats().ticks_handled};
    };

    const auto [ticked_ns, ticks_handled] = run(true);
    const auto [tickless_ns, no_ticks_handled] = run(false);
    EXPECT_GT(ticks_handled, 100u) << "4 cores x 50 ticks each";
    EXPECT_EQ(no_ticks_handled, 0u);
    EXPECT_GT(tickless_ns, ticked_ns)
        << "tick handling must visibly steal vCPU cycles";
    // The loss should be in the ~1-2% ballpark (12.6 us per 1 ms).
    const double loss = 1.0 - ticked_ns.ToDouble() /
                                  tickless_ns.ToDouble();
    EXPECT_NEAR(loss, 0.0126, 0.008);
}

}  // namespace
}  // namespace wave::ghost
