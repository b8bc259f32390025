/**
 * @file
 * Unit tests for the ghOSt substrate: interrupt controller semantics,
 * transport message/decision round trips on both bindings, kernel
 * atomic-commit behaviour (including clean failure on dead threads),
 * preemption via kicks, and wake-while-running handling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ghost/agent.h"
#include "ghost/interrupt.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "rpc/rpc_experiment.h"
#include "sched/fifo.h"
#include "sched/shinjuku.h"
#include "sim/frame_pool.h"
#include "sim/inject.h"
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

/** Records every outcome batch handed to it, by core. */
struct RecordingSink : OutcomeSink {
    void
    OnOutcomes(int core, std::span<const api::TxnOutcome> outcomes) override
    {
        for (const api::TxnOutcome& outcome : outcomes) {
            seen.emplace_back(core, outcome.txn_id);
        }
    }

    std::vector<std::pair<int, api::TxnId>> seen;
};

TEST_P(TransportTest, ConcurrentOutcomePollsKeepTheirOwnBatches)
{
    // A killed agent may still be draining outcomes while its
    // replacement polls through the same transport. Each poll must hand
    // its sink exactly what it took from its own cores.
    TransportFixture f(GetParam());
    f.sim.Spawn([](TransportFixture& fx) -> Task<> {
        for (api::TxnId id = 1; id <= 3; ++id) {
            co_await fx.transport->HostSendOutcome(
                0, {id, api::TxnStatus::kCommitted});
            co_await fx.transport->HostSendOutcome(
                1, {100 + id, api::TxnStatus::kFailedStale});
        }
    }(f));
    f.sim.RunFor(5'000);

    const std::vector<int> core0{0};
    const std::vector<int> core1{1};
    RecordingSink sink0;
    RecordingSink sink1;
    f.sim.Spawn(f.transport->AgentPollAllOutcomes(core0, 8, sink0));
    f.sim.Spawn(f.transport->AgentPollAllOutcomes(core1, 8, sink1));
    f.sim.Run();

    using Seen = std::vector<std::pair<int, api::TxnId>>;
    EXPECT_EQ(sink0.seen, (Seen{{0, 1}, {0, 2}, {0, 3}}));
    EXPECT_EQ(sink1.seen, (Seen{{1, 101}, {1, 102}, {1, 103}}));
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
    explicit StackFixture(
        bool wave, int cores = 2,
        std::function<Task<>(AgentContext&)> aux_stage = nullptr)
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
        config.aux_stage = std::move(aux_stage);
        agent = std::make_shared<GhostAgent>(*transport, policy, config);
        runtime.StartWaveAgent(agent, 0);  // NIC core 0 serves either binding
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
    std::unique_ptr<SchedTransport> transport;
    std::unique_ptr<KernelSched> kernel;
    std::shared_ptr<sched::FifoPolicy> policy;
    std::shared_ptr<GhostAgent> agent;
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
    f.runtime.StartWaveAgent(agent, 0);

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

/**
 * Runs an idle agent of @p cores cores over one binding for 1 ms after a
 * 1 ms warm-up and checks an idle pass's budget: one event per poll
 * (the message queue and each core's outcome queue) plus the loop
 * overhead's, cores + 2 in all, and at most two coroutine frames, the
 * message poll's and the outcome poll's, whatever the core count. The
 * polls and the Work are frame-free awaiters, and no stage of the pass
 * is a task of its own; an idle @p aux_stage adds neither. The agent's
 * Run frame, built at spawn, must fit the frame pool.
 */
void
ExpectIdlePassBudget(bool wave, int cores,
                     std::function<Task<>(AgentContext&)> aux_stage = nullptr)
{
    const std::uint64_t oversized0 = sim::detail::FramePoolOversized();
    StackFixture f(wave, cores, std::move(aux_stage));
    f.sim.RunFor(1'000'000);  // warm-up: every frame size class pooled
    StepToPassStart(f.sim, *f.agent);

    const std::uint64_t passes0 = f.agent->Stats().iterations;
    const std::uint64_t events0 = f.sim.EventsExecuted();
    const std::uint64_t reuses0 = sim::detail::FramePoolReuses();
    f.sim.RunFor(1'000'000);
    StepToPassStart(f.sim, *f.agent);

    const std::uint64_t passes = f.agent->Stats().iterations - passes0;
    const std::uint64_t events = f.sim.EventsExecuted() - events0;
    const std::uint64_t frames = sim::detail::FramePoolReuses() - reuses0;
    // An idle 16-core pass takes about 166 ns on Wave, 452 ns On-Host.
    ASSERT_GT(passes, wave ? 5'000u : 1'500u);
    EXPECT_EQ(f.agent->Stats().messages, 0u);
    EXPECT_EQ(f.agent->Stats().decisions, 0u);
    EXPECT_EQ(events, static_cast<std::uint64_t>(cores + 2) * passes);
    EXPECT_LE(frames, 2 * passes) << frames / passes
                                  << " frames per idle pass";
    EXPECT_EQ(sim::detail::FramePoolOversized(), oversized0);
}

TEST(AgentPass, IdleWavePassIsOneEventPerPollAndFewFrames)
{
    ExpectIdlePassBudget(/*wave=*/true, 16);
    ExpectIdlePassBudget(/*wave=*/true, 4);
}

TEST(AgentPass, IdleOnHostPassIsOneEventPerPollAndFewFrames)
{
    ExpectIdlePassBudget(/*wave=*/false, 16);
    ExpectIdlePassBudget(/*wave=*/false, 4);
}

TEST(AgentPass, IdleOffloadAllRpcPassBuildsNoSteeringFrame)
{
    // Offload-All co-locates rpc's steering stage with the agent, which
    // runs it every pass. With no request waiting the stage returns an
    // empty task, so the pass keeps the two polls' frames and adds no
    // event.
    rpc::SteeringStage steering{
        .queue = std::make_shared<std::deque<workload::Request>>()};
    ExpectIdlePassBudget(/*wave=*/true, 16, rpc::SteeringAuxStage(steering));
}

/** Forwards every call to @p inner. */
class ForwardingTransport : public SchedTransport {
  public:
    explicit ForwardingTransport(SchedTransport& inner) : inner_(inner) {}

    Task<>
    HostSendMessage(const GhostMessage& message) override
    {
        return inner_.HostSendMessage(message);
    }

    Task<std::optional<PendingDecision>>
    HostPollDecision(int core, bool flush_first) override
    {
        return inner_.HostPollDecision(core, flush_first);
    }

    Task<>
    HostPrefetchDecision(int core) override
    {
        return inner_.HostPrefetchDecision(core);
    }

    Task<>
    HostSendOutcome(int core, const api::TxnOutcome& outcome) override
    {
        return inner_.HostSendOutcome(core, outcome);
    }

    CoreInterrupt&
    InterruptFor(int core) override
    {
        return inner_.InterruptFor(core);
    }

    sim::DurationNs
    InterruptReceiveCost() const override
    {
        return inner_.InterruptReceiveCost();
    }

    Task<std::vector<GhostMessage>>
    AgentPollMessages(std::size_t max) override
    {
        return inner_.AgentPollMessages(max);
    }

    api::TxnId
    AgentStageDecision(const GhostDecision& d) override
    {
        return inner_.AgentStageDecision(d);
    }

    Task<std::size_t>
    AgentCommit(int core, bool kick) override
    {
        return inner_.AgentCommit(core, kick);
    }

    Task<std::vector<api::TxnOutcome>>
    AgentPollOutcomes(int core, std::size_t max) override
    {
        return inner_.AgentPollOutcomes(core, max);
    }

    Task<>
    AgentPollAllOutcomes(std::span<const int> cores, std::size_t max,
                         OutcomeSink& sink) override
    {
        return inner_.AgentPollAllOutcomes(cores, max, sink);
    }

    Task<> AgentKick(int core) override { return inner_.AgentKick(core); }

    int CoreCount() const override { return inner_.CoreCount(); }

  protected:
    SchedTransport& inner_;
};

/**
 * Keeps SchedTransport's default AgentPollAllOutcomes, one
 * AgentPollOutcomes() per core: the path a transport that overrides
 * only the per-core poll takes.
 */
class PerCorePollTransport : public ForwardingTransport {
  public:
    using ForwardingTransport::ForwardingTransport;

    Task<>
    AgentPollAllOutcomes(std::span<const int> cores, std::size_t max,
                         OutcomeSink& sink) override
    {
        return SchedTransport::AgentPollAllOutcomes(cores, max, sink);
    }
};

/** Thread body that burns @p work per run and yields, runnable forever. */
class YieldingBody : public ThreadBody {
  public:
    explicit YieldingBody(sim::DurationNs work) : work_(work) {}

    Task<RunStop>
    Run(RunContext& ctx) override
    {
        const auto ran = co_await ctx.interrupt.SleepInterruptible(work_);
        co_return ran < work_ ? RunStop::kPreempted : RunStop::kYielded;
    }

  private:
    sim::DurationNs work_;
};

struct FaultedShinjukuRun {
    std::uint64_t event_hash;
    AgentStats agent;
    std::uint64_t injected_fails;
};

/**
 * A 4-core Wave Shinjuku deployment with a 10 us slice, threads that run
 * past it and a 100 us commit-fail burst, polled through the Wave
 * binding's own AgentPollAllOutcomes or through the per-core default.
 */
FaultedShinjukuRun
RunFaultedShinjuku(bool per_core_poll)
{
    constexpr int kCores = 4;
    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    sim::inject::FaultInjector injector(sim);
    injector.Arm({sim::inject::FaultSpec{
        .kind = sim::inject::FaultKind::kCommitFailBurst,
        .at = TimeNs{400'000},
        .duration = 100'000}});
    runtime.AttachInjector(&injector);
    WaveSchedTransport wave(runtime, kCores);
    PerCorePollTransport per_core(wave);
    SchedTransport& transport =
        per_core_poll ? static_cast<SchedTransport&>(per_core) : wave;
    KernelSched kernel(sim, machine, transport);
    kernel.SetFaultInjector(&injector);
    AgentConfig config;
    for (int core = 0; core < kCores; ++core) config.cores.push_back(core);
    config.prestage_min_depth = 2;
    auto agent = std::make_shared<GhostAgent>(
        transport, std::make_shared<sched::ShinjukuPolicy>(10'000), config);
    runtime.StartWaveAgent(agent, 0);
    for (Tid tid = 1; tid <= 10; ++tid) {
        kernel.AddThread(tid, std::make_shared<YieldingBody>(
                                  static_cast<sim::DurationNs>(tid) * 4'000));
    }
    kernel.Start(config.cores);
    sim.RunFor(1'500'000);
    return {sim.EventHash(), agent->Stats(), injector.Stats().commit_fails};
}

TEST(AgentPass, BatchedOutcomePollMatchesThePerCoreDefault)
{
    const FaultedShinjukuRun batched = RunFaultedShinjuku(false);
    const FaultedShinjukuRun per_core = RunFaultedShinjuku(true);
    EXPECT_GT(batched.agent.preempt_decisions, 0u);
    EXPECT_GT(batched.agent.prestages, 0u);
    EXPECT_GT(batched.agent.failed_commits, 0u);
    EXPECT_GT(batched.injected_fails, 0u);

    EXPECT_EQ(batched.event_hash, per_core.event_hash);
    EXPECT_EQ(batched.injected_fails, per_core.injected_fails);
    EXPECT_EQ(batched.agent.iterations, per_core.agent.iterations);
    EXPECT_EQ(batched.agent.messages, per_core.agent.messages);
    EXPECT_EQ(batched.agent.decisions, per_core.agent.decisions);
    EXPECT_EQ(batched.agent.prestages, per_core.agent.prestages);
    EXPECT_EQ(batched.agent.preempt_decisions,
              per_core.agent.preempt_decisions);
    EXPECT_EQ(batched.agent.failed_commits, per_core.agent.failed_commits);
    EXPECT_EQ(batched.agent.kicks, per_core.agent.kicks);
}

/**
 * Holds every block message back for @p delay, so the agent learns that
 * the host adopted a prestaged decision at the block from its commit
 * outcome before the block message itself arrives.
 */
class LateBlockTransport : public ForwardingTransport {
  public:
    LateBlockTransport(Simulator& sim, SchedTransport& inner,
                       sim::DurationNs delay)
        : ForwardingTransport(inner), sim_(sim), delay_(delay)
    {
    }

    Task<>
    HostSendMessage(const GhostMessage& message) override
    {
        if (message.type == MsgType::kThreadBlocked) {
            sim_.Spawn(SendLate(message));
            co_return;
        }
        co_await inner_.HostSendMessage(message);
    }

  private:
    Task<>
    SendLate(GhostMessage message)
    {
        co_await sim_.Delay(delay_);
        co_await inner_.HostSendMessage(message);
    }

    Simulator& sim_;
    sim::DurationNs delay_;
};

/** A FIFO policy that records what each preemption check sees. */
class PreemptCheckRecorder : public sched::FifoPolicy {
  public:
    struct Check {
        int core;
        Tid tid;
        sim::DurationNs ran_for;
        int blocks_seen;  ///< block messages the policy had by then
    };

    void
    OnMessage(const GhostMessage& message) override
    {
        if (message.type == MsgType::kThreadBlocked) ++blocks_seen_;
        FifoPolicy::OnMessage(message);
    }

    bool
    ShouldPreempt(int core, Tid tid, sim::DurationNs ran_for) const override
    {
        checks.push_back({core, tid, ran_for, blocks_seen_});
        return FifoPolicy::ShouldPreempt(core, tid, ran_for);
    }

    mutable std::vector<Check> checks;

  private:
    int blocks_seen_ = 0;
};

TEST(AgentPass, AdoptedPrestageRunsFromItsCoresOutcomePoll)
{
    // Thread 1 runs on core 0 with thread 3 prestaged behind it, and
    // thread 2 keeps core 1 busy. When thread 1 blocks, the host adopts
    // thread 3 and reports the commit; the block message comes 20 us
    // late. The agent must start thread 3's run when core 0's outcome
    // poll finished, not when the pass's last poll did: only core 1's
    // empty poll, one NIC-local flag read, lies between that instant and
    // the pass's preemption check.
    Simulator sim;
    machine::Machine machine(sim);
    const pcie::PcieConfig pcie;
    WaveRuntime runtime(sim, machine, pcie, api::OptimizationConfig::Full());
    WaveSchedTransport wave(runtime, 2);
    LateBlockTransport transport(sim, wave, 20_us);
    KernelSched kernel(sim, machine, transport);
    auto policy = std::make_shared<PreemptCheckRecorder>();
    AgentConfig config;
    config.cores = {0, 1};
    config.prestage_min_depth = 1;
    runtime.StartWaveAgent(
        std::make_shared<GhostAgent>(transport, policy, config), 0);
    int completions = 0;
    for (const auto& [tid, work] :
         {std::pair{1, 5_us}, std::pair{2, 100_us}, std::pair{3, 5_us}}) {
        kernel.AddThread(tid,
                         std::make_shared<FixedWorkBody>(work, completions));
    }
    kernel.Start(config.cores);
    sim.RunFor(50_us);

    const auto& checks = policy->checks;
    const auto first = std::find_if(
        checks.begin(), checks.end(),
        [](const PreemptCheckRecorder::Check& c) { return c.tid == 3; });
    ASSERT_NE(first, checks.end()) << "thread 3 never ran";
    EXPECT_EQ(first->core, 0);
    EXPECT_EQ(first->blocks_seen, 0)
        << "the block message reached the agent before the outcome";
    EXPECT_EQ(first->ran_for, pcie.nic_wb_access_ns);
    EXPECT_EQ(completions, 2);
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
