/**
 * @file
 * Unit tests for the ghOSt substrate: interrupt controller semantics,
 * transport message/decision round trips on both bindings, kernel
 * atomic-commit behaviour (including clean failure on dead threads),
 * preemption via kicks, and wake-while-running handling.
 */
#include <gtest/gtest.h>

#include "ghost/agent.h"
#include "ghost/interrupt.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "sched/fifo.h"
#include "sim/frame_pool.h"
#include "sim/simulator.h"
#include "wave/runtime.h"

namespace wave::ghost {
namespace {

using sim::Simulator;
using sim::Task;
using sim::TimeNs;
using namespace sim::time_literals;

#define CO_ASSERT(expr)                                     \
    do {                                                    \
        if (!(expr)) {                                      \
            ADD_FAILURE() << "CO_ASSERT failed: " << #expr; \
            co_return;                                      \
        }                                                   \
    } while (0)

TEST(CoreInterrupt, SleepInterruptibleRunsToDeadlineWhenQuiet)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    sim.Spawn([](Simulator& s, CoreInterrupt& i) -> Task<> {
        const auto slept = co_await i.SleepInterruptible(10_us);
        EXPECT_EQ(slept, 10'000u);
        EXPECT_EQ(s.Now().ns(), 10'000u);
    }(sim, irq));
    sim.Run();
}

TEST(CoreInterrupt, RaiseCutsSleepShortAtArrivalTime)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    sim.Schedule(3000, [&] { irq.Raise(); });
    sim.Spawn([](CoreInterrupt& i) -> Task<> {
        const auto slept = co_await i.SleepInterruptible(10_us);
        EXPECT_EQ(slept, 3000u);
        EXPECT_TRUE(i.KickPending());
    }(irq));
    sim.Run();
}

TEST(CoreInterrupt, TickAndKickLatchSeparately)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    irq.RaiseTick();
    EXPECT_TRUE(irq.Pending());
    EXPECT_FALSE(irq.KickPending());
    EXPECT_TRUE(irq.ConsumeTick());
    EXPECT_FALSE(irq.Pending());
    irq.Raise();
    EXPECT_TRUE(irq.ConsumeKick());
    EXPECT_FALSE(irq.ConsumeKick());
}

TEST(CoreInterrupt, WaitForInterruptReturnsOnLatchedRaise)
{
    Simulator sim;
    CoreInterrupt irq(sim);
    irq.Raise();  // raised before the wait: no lost wakeup
    bool woke = false;
    sim.Spawn([](CoreInterrupt& i, bool& w) -> Task<> {
        co_await i.WaitForInterrupt();
        w = true;
    }(irq, woke));
    sim.RunFor(1000);
    EXPECT_TRUE(woke);
}

/** Builds a transport of either binding for parameterized tests. */
struct TransportFixture {
    explicit TransportFixture(bool wave, int cores = 2)
        : machine(sim),
          runtime(sim, machine, pcie::PcieConfig{},
                  api::OptimizationConfig::Full())
    {
        if (wave) {
            transport =
                std::make_unique<WaveSchedTransport>(runtime, cores);
        } else {
            transport = std::make_unique<ShmSchedTransport>(sim, cores);
        }
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
    std::unique_ptr<SchedTransport> transport;
};

class TransportTest : public ::testing::TestWithParam<bool> {};

TEST_P(TransportTest, MessageRoundTrip)
{
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostMessage message{};
        message.type = MsgType::kThreadWakeup;
        message.tid = 42;
        message.core = 1;
        message.payload = 777;
        co_await fx.transport->HostSendMessage(message);
        co_await fx.sim.Delay(2_us);  // let posted writes land

        auto got = co_await fx.transport->AgentPollMessages(8);
        CO_ASSERT(got.size() == 1u);
        EXPECT_EQ(got[0].type, MsgType::kThreadWakeup);
        EXPECT_EQ(got[0].tid, 42);
        EXPECT_EQ(got[0].core, 1);
        EXPECT_EQ(got[0].payload, 777u);
    }(f));
    f.sim.Run();
}

TEST_P(TransportTest, DecisionCommitKicksAndDelivers)
{
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 7;
        d.core = 1;
        d.slice_ns = 30'000;
        const api::TxnId id = fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(1, /*kick=*/true);

        // The kick raises core 1's interrupt line after the wire delay.
        co_await fx.transport->InterruptFor(1).WaitForInterrupt();
        EXPECT_TRUE(fx.transport->InterruptFor(1).ConsumeKick());

        auto pd = co_await fx.transport->HostPollDecision(1, true);
        CO_ASSERT(pd.has_value());
        EXPECT_EQ(pd->txn_id, id);
        EXPECT_EQ(pd->decision.tid, 7);
        EXPECT_EQ(pd->decision.slice_ns, 30'000u);

        // Outcome flows back.
        co_await fx.transport->HostSendOutcome(
            1, {pd->txn_id, api::TxnStatus::kCommitted});
        co_await fx.sim.Delay(2_us);
        auto outs = co_await fx.transport->AgentPollOutcomes(1, 4);
        CO_ASSERT(outs.size() == 1u);
        EXPECT_EQ(outs[0].status, api::TxnStatus::kCommitted);
    }(f));
    f.sim.Run();
}

TEST_P(TransportTest, DecisionsForDifferentCoresAreIndependent)
{
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        GhostDecision d0{};
        d0.type = DecisionType::kRunThread;
        d0.tid = 1;
        d0.core = 0;
        GhostDecision d1 = d0;
        d1.tid = 2;
        d1.core = 1;
        fx.transport->AgentStageDecision(d0);
        fx.transport->AgentStageDecision(d1);
        co_await fx.transport->AgentCommit(0, false);
        co_await fx.transport->AgentCommit(1, false);
        co_await fx.sim.Delay(2_us);

        auto p0 = co_await fx.transport->HostPollDecision(0, true);
        auto p1 = co_await fx.transport->HostPollDecision(1, true);
        CO_ASSERT(p0.has_value());
        CO_ASSERT(p1.has_value());
        EXPECT_EQ(p0->decision.tid, 1);
        EXPECT_EQ(p1->decision.tid, 2);
    }(f));
    f.sim.Run();
}

TEST_P(TransportTest, ConcurrentMessageSendersDoNotCorruptTheQueue)
{
    TransportFixture f(GetParam());
    // 20 concurrent host-side senders (the bug class that motivates the
    // transport's internal send serialization).
    for (int i = 0; i < 20; ++i) {
        f.sim.Spawn([](TransportFixture& fx, int id) -> Task<> {
            GhostMessage message{};
            message.type = MsgType::kThreadWakeup;
            message.tid = id;
            co_await fx.transport->HostSendMessage(message);
        }(f, i));
    }
    bool checked = false;
    f.sim.Spawn([](TransportFixture& fx, bool& done) -> Task<> {
        co_await fx.sim.Delay(50_us);
        std::vector<bool> seen(20, false);
        auto got = co_await fx.transport->AgentPollMessages(64);
        CO_ASSERT(got.size() == 20u);
        for (const auto& m : got) {
            CO_ASSERT(m.tid >= 0 && m.tid < 20);
            EXPECT_FALSE(seen[static_cast<std::size_t>(m.tid)])
                << "duplicate tid " << m.tid;
            seen[static_cast<std::size_t>(m.tid)] = true;
        }
        done = true;
    }(f, checked));
    f.sim.Run();
    EXPECT_TRUE(checked);
}

TEST_P(TransportTest, ServesOnlyItsOwnCoreSet)
{
    // One enclave's partition: cores 1 and 3 of the machine. Core 3's
    // decision reaches core 3, and the unserved cores in between and
    // beyond are rejected rather than aliased to a served one.
    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    std::unique_ptr<SchedTransport> transport;
    if (GetParam()) {
        transport = std::make_unique<WaveSchedTransport>(
            runtime, std::vector<int>{1, 3});
    } else {
        transport = std::make_unique<ShmSchedTransport>(
            sim, std::vector<int>{1, 3});
    }
    EXPECT_EQ(transport->CoreCount(), 2);

    sim.Spawn([](Simulator& s, SchedTransport& t) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 9;
        d.core = 3;
        const api::TxnId id = t.AgentStageDecision(d);
        co_await t.AgentCommit(3, /*kick=*/false);
        co_await s.Delay(2_us);
        auto pd = co_await t.HostPollDecision(3, true);
        CO_ASSERT(pd.has_value());
        EXPECT_EQ(pd->txn_id, id);
        EXPECT_EQ(pd->decision.tid, 9);
    }(sim, *transport));
    sim.Run();

    EXPECT_DEATH(transport->InterruptFor(2), "core 2 is not served");
    EXPECT_DEATH(transport->InterruptFor(4), "core 4 is not served");
}

INSTANTIATE_TEST_SUITE_P(Bindings, TransportTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                             return param_info.param ? "Wave" : "OnHostShm";
                         });

/** Thread body burning a fixed amount of service time per wake. */
class FixedWorkBody : public ThreadBody {
  public:
    explicit FixedWorkBody(sim::DurationNs work, int& completions)
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
        co_return RunStop::kBlocked;
    }

  private:
    sim::DurationNs work_;
    int& completions_;
};

/** Full-stack fixture: kernel + agent + FIFO policy on a transport. */
struct StackFixture {
    explicit StackFixture(bool wave, int cores = 2)
        : machine(sim),
          runtime(sim, machine, pcie::PcieConfig{},
                  api::OptimizationConfig::Full())
    {
        if (wave) {
            transport =
                std::make_unique<WaveSchedTransport>(runtime, cores);
        } else {
            transport = std::make_unique<ShmSchedTransport>(sim, cores);
        }
        kernel = std::make_unique<KernelSched>(sim, machine, *transport);
        policy = std::make_shared<sched::FifoPolicy>();
        AgentConfig config;
        for (int i = 0; i < cores; ++i) config.cores.push_back(i);
        config.prestage_min_depth = 2;
        agent = std::make_shared<GhostAgent>(*transport, policy, config);
        if (wave) {
            runtime.StartWaveAgent(agent, 0);
        } else {
            agent_ctx = std::make_unique<AgentContext>(
                sim, machine.NicCpu(0));  // any spare CPU model works
            sim.Spawn(agent->Run(*agent_ctx));
        }
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
    std::unique_ptr<SchedTransport> transport;
    std::unique_ptr<KernelSched> kernel;
    std::shared_ptr<sched::FifoPolicy> policy;
    std::shared_ptr<GhostAgent> agent;
    std::unique_ptr<AgentContext> agent_ctx;
};

class StackTest : public ::testing::TestWithParam<bool> {};

TEST_P(StackTest, SchedulesARunnableThreadEndToEnd)
{
    StackFixture f(GetParam());
    int completions = 0;
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(5_us,
                                                           completions));
    f.kernel->Start({0, 1});
    f.sim.RunFor(1'000'000);  // 1 ms
    EXPECT_EQ(completions, 1);
    EXPECT_GE(f.kernel->Stats().commits_ok, 1u);
}

TEST_P(StackTest, ManyThreadsAllGetScheduled)
{
    StackFixture f(GetParam());
    int completions = 0;
    for (Tid tid = 1; tid <= 20; ++tid) {
        f.kernel->AddThread(
            tid, std::make_shared<FixedWorkBody>(5_us, completions));
    }
    f.kernel->Start({0, 1});
    f.sim.RunFor(5'000'000);
    EXPECT_EQ(completions, 20);
}

TEST_P(StackTest, WakeupReschedulesABlockedThread)
{
    StackFixture f(GetParam());
    int completions = 0;
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(5_us,
                                                           completions));
    f.kernel->Start({0, 1});
    f.sim.RunFor(1'000'000);
    ASSERT_EQ(completions, 1);

    f.kernel->WakeThread(1);
    f.sim.RunFor(1'000'000);
    EXPECT_EQ(completions, 2);
}

TEST_P(StackTest, CommitAgainstDeadThreadFailsCleanly)
{
    StackFixture f(GetParam());
    f.kernel->Start({0, 1});
    f.sim.RunFor(100'000);

    // Forge a decision for a thread the kernel never knew. The commit
    // must fail with kFailedStale and host state must stay intact.
    f.sim.Spawn([](StackFixture& fx) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 999;  // unknown thread
        d.core = 0;
        fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(0, /*kick=*/true);
    }(f));
    f.sim.RunFor(1'000'000);
    EXPECT_GE(f.kernel->Stats().commits_failed, 1u);
    // The kernel survives: a real thread still schedules fine.
    int completions = 0;
    f.kernel->AddThread(
        1, std::make_shared<FixedWorkBody>(5_us, completions));
    f.sim.RunFor(1'000'000);
    EXPECT_EQ(completions, 1);
}

TEST_P(StackTest, WakeWhileRunningIsNotLost)
{
    StackFixture f(GetParam());
    int completions = 0;
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(50_us,
                                                           completions));
    f.kernel->Start({0, 1});
    // Wake the thread while it is mid-run; the wake must convert the
    // eventual block into a re-enqueue, producing a second completion.
    f.sim.Schedule(30'000, [&] { f.kernel->WakeThread(1); });
    f.sim.RunFor(2'000'000);
    EXPECT_EQ(completions, 2);
}

INSTANTIATE_TEST_SUITE_P(Bindings, StackTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                             return param_info.param ? "Wave" : "OnHostShm";
                         });

/** A FIFO policy that records every thread handed back to it. */
class RecordingFifo : public sched::FifoPolicy {
  public:
    void
    OnDecisionFailed(const GhostDecision& decision) override
    {
        handed_back.push_back(decision.tid);
        FifoPolicy::OnDecisionFailed(decision);
    }

    std::vector<Tid> handed_back;
};

class AgentOutcomeTest : public ::testing::TestWithParam<bool> {};

TEST_P(AgentOutcomeTest, RejectedReactiveTxnIsMatchedWithinItsCore)
{
    // Txn ids are numbered per core, so the first reactive decisions on
    // cores 0 and 1 both carry txn 1. The test plays the host: it
    // rejects core 0's and commits core 1's. The agent must hand back
    // core 0's thread, not the thread core 1's record holds.
    TransportFixture f(GetParam());
    auto policy = std::make_shared<RecordingFifo>();
    for (Tid tid : {10, 11}) {
        policy->OnMessage(GhostMessage{MsgType::kThreadCreated, tid,
                                       /*core=*/-1, 0, 0});
    }
    AgentConfig config;
    config.cores = {0, 1};
    auto agent = std::make_shared<GhostAgent>(*f.transport, policy, config);
    AgentContext ctx(f.sim, f.machine.NicCpu(0));
    f.sim.Spawn(agent->Run(ctx));

    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        co_await fx.sim.Delay(5_us);
        auto d0 = co_await fx.transport->HostPollDecision(0, true);
        auto d1 = co_await fx.transport->HostPollDecision(1, true);
        CO_ASSERT(d0.has_value() && d1.has_value());
        EXPECT_EQ(d0->decision.tid, 10);
        EXPECT_EQ(d1->decision.tid, 11);
        EXPECT_EQ(d0->txn_id, d1->txn_id);
        co_await fx.transport->HostSendOutcome(
            0, {d0->txn_id, api::TxnStatus::kFailedRejected});
        co_await fx.transport->HostSendOutcome(
            1, {d1->txn_id, api::TxnStatus::kCommitted});
    }(f));
    f.sim.RunFor(50'000);
    EXPECT_EQ(policy->handed_back, std::vector<Tid>{10});
    EXPECT_EQ(agent->Stats().failed_commits, 1u);
}

INSTANTIATE_TEST_SUITE_P(Bindings, AgentOutcomeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                             return param_info.param ? "Wave" : "OnHostShm";
                         });

TEST(Preemption, AgentKickPreemptsLongRunner)
{
    StackFixture f(/*wave=*/true, /*cores=*/1);
    int completions = 0;
    // One long thread hogs the single core; a second thread arrives.
    f.kernel->AddThread(1, std::make_shared<FixedWorkBody>(500_us,
                                                           completions));
    f.kernel->Start({0});
    f.sim.RunFor(50'000);

    f.kernel->AddThread(2, std::make_shared<FixedWorkBody>(5_us,
                                                           completions));
    f.sim.RunFor(50'000);

    // FIFO never preempts: the short thread waits for the long one.
    EXPECT_EQ(f.kernel->Stats().preemptions, 0u);

    // Force a preemption decision directly (policy-independent check
    // of the MSI-X preemption path).
    f.sim.Spawn([](StackFixture& fx) -> Task<> {
        GhostDecision d{};
        d.type = DecisionType::kRunThread;
        d.tid = 2;
        d.core = 0;
        d.preempt = 1;  // explicit preemption intent
        fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(0, /*kick=*/true);
    }(f));
    f.sim.RunFor(100'000);
    EXPECT_GE(f.kernel->Stats().preemptions, 1u);
    EXPECT_GE(completions, 1);  // the short thread completed
}

/** Steps @p sim until @p agent begins its next loop pass. */
void
StepToPassStart(Simulator& sim, const GhostAgent& agent)
{
    const std::uint64_t passes = agent.Stats().iterations;
    while (agent.Stats().iterations == passes) {
        ASSERT_TRUE(sim.Step()) << "the agent stopped iterating";
    }
}

TEST(AgentPass, IdleWavePassIsOneEventPerPollAndFewFrames)
{
    // An idle Wave agent polls its message queue and each core's outcome
    // queue once per pass, then pays its loop overhead: one event each,
    // cores + 2 in all. The polls and the Work are frame-free awaiters,
    // so a pass builds only the agent's five stage tasks, the message
    // poll's transport and PollBatch tasks, and one PollTxnsOutcomes
    // task per core: cores + 7 frames.
    constexpr int kCores = 16;
    StackFixture f(/*wave=*/true, kCores);
    f.sim.RunFor(1'000'000);  // warm-up: every frame size class pooled
    StepToPassStart(f.sim, *f.agent);

    const std::uint64_t passes0 = f.agent->Stats().iterations;
    const std::uint64_t events0 = f.sim.EventsExecuted();
    const std::uint64_t reuses0 = sim::detail::FramePoolReuses();
    const std::uint64_t oversized0 = sim::detail::FramePoolOversized();
    f.sim.RunFor(1'000'000);
    StepToPassStart(f.sim, *f.agent);

    const std::uint64_t passes = f.agent->Stats().iterations - passes0;
    const std::uint64_t events = f.sim.EventsExecuted() - events0;
    const std::uint64_t frames = sim::detail::FramePoolReuses() - reuses0;
    ASSERT_GT(passes, 5'000u) << "an idle pass takes ~166 ns";
    EXPECT_EQ(f.agent->Stats().messages, 0u);
    EXPECT_EQ(f.agent->Stats().decisions, 0u);
    EXPECT_EQ(events, (kCores + 2) * passes);
    EXPECT_LE(frames, (kCores + 7) * passes)
        << frames / passes << " frames per idle pass";
    EXPECT_EQ(sim::detail::FramePoolOversized(), oversized0);
}

}  // namespace
}  // namespace wave::ghost

namespace wave::ghost {
namespace {

TEST(KernelSched, IdleDecisionCommitsAndLeavesCoreIdle)
{
    // An explicit kIdle decision commits successfully (outcome
    // kCommitted) but schedules nothing.
    StackFixture f(/*wave=*/true, /*cores=*/1);
    f.kernel->Start({0});
    f.sim.RunFor(100'000);

    f.sim.Spawn([](StackFixture& fx) -> sim::Task<> {
        GhostDecision d{};
        d.type = DecisionType::kIdle;
        d.core = 0;
        fx.transport->AgentStageDecision(d);
        co_await fx.transport->AgentCommit(0, /*kick=*/true);
    }(f));
    f.sim.RunFor(1'000'000);
    EXPECT_GE(f.kernel->Stats().commits_ok, 1u);
    EXPECT_EQ(f.kernel->Stats().commits_failed, 0u);
}

TEST(KernelSched, PollIdleModeSchedulesWithoutKicks)
{
    // Kickless agent + polling kernel still makes progress.
    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    WaveSchedTransport transport(runtime, 2);
    KernelOptions options;
    options.poll_idle = true;
    KernelSched kernel(sim, machine, transport, GhostCosts{}, options);

    auto policy = std::make_shared<sched::FifoPolicy>();
    AgentConfig cfg;
    cfg.cores = {0, 1};
    cfg.use_kicks = false;
    auto agent = std::make_shared<GhostAgent>(transport, policy, cfg);
    runtime.StartWaveAgent(agent, 0);

    int completions = 0;
    for (Tid tid = 1; tid <= 10; ++tid) {
        kernel.AddThread(tid, std::make_shared<FixedWorkBody>(
                                  5'000, completions));
    }
    kernel.Start({0, 1});
    sim.RunFor(3'000'000);
    EXPECT_EQ(completions, 10);
    EXPECT_EQ(agent->Stats().kicks, 0u) << "no MSI-X in polling mode";
    EXPECT_GT(kernel.Stats().idle_polls, 0u);
}

}  // namespace
}  // namespace wave::ghost
