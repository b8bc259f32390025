/**
 * @file
 * Unit tests for the scheduling policies (pure decision logic): FIFO
 * ordering, Shinjuku preemption rules, multi-queue SLO priority, and
 * the VM policy's pinning and quantum behaviour.
 */
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "sched/fifo.h"
#include "sched/shinjuku.h"
#include "sched/vm_policy.h"
#include "sim/random.h"

namespace wave::sched {
namespace {

using ghost::DecisionType;
using ghost::GhostMessage;
using ghost::MsgType;
using ghost::Tid;

GhostMessage
Msg(MsgType type, Tid tid, int core = 0)
{
    GhostMessage m{};
    m.type = type;
    m.tid = tid;
    m.core = core;
    return m;
}

TEST(Fifo, PicksInArrivalOrder)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 3));
    EXPECT_EQ(policy.RunQueueDepth(), 3u);

    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1);
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 2);
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 3);
    EXPECT_FALSE(policy.PickNext(0, sim::TimeNs{0}).has_value());
}

TEST(Fifo, DecisionTargetsTheRequestedCore)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 5));
    auto d = policy.PickNext(3, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->core, 3);
    EXPECT_EQ(d->type, DecisionType::kRunThread);
    EXPECT_EQ(d->slice_ns, 0u) << "FIFO runs to completion";
}

TEST(Fifo, BlockedThreadIsNotRequeuedUntilWakeup)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    ASSERT_TRUE(policy.PickNext(0, sim::TimeNs{0}).has_value());
    policy.OnMessage(Msg(MsgType::kThreadBlocked, 1));
    EXPECT_FALSE(policy.PickNext(0, sim::TimeNs{0}).has_value());
    policy.OnMessage(Msg(MsgType::kThreadWakeup, 1));
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1);
}

TEST(Fifo, DuplicateEnqueueIsIgnored)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadWakeup, 1));  // already queued
    EXPECT_EQ(policy.RunQueueDepth(), 1u);
}

TEST(Fifo, DeadThreadsAreNeverPicked)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    policy.OnMessage(Msg(MsgType::kThreadDead, 1));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->tid, 2);
    EXPECT_FALSE(policy.PickNext(0, sim::TimeNs{0}).has_value());
}

TEST(Fifo, FailedCommitRequeuesAtFront)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    policy.OnDecisionFailed(*d);
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1) << "order preserved";
}

TEST(Fifo, FailedCommitOfDeadThreadIsDropped)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    policy.OnMessage(Msg(MsgType::kThreadDead, 1));
    policy.OnDecisionFailed(*d);
    EXPECT_EQ(policy.RunQueueDepth(), 0u);
}

TEST(Fifo, NeverPreempts)
{
    FifoPolicy policy;
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    EXPECT_FALSE(policy.ShouldPreempt(0, 2, 1'000'000'000));
}

TEST(Shinjuku, PreemptsAfterSliceOnlyWhenWaitersExist)
{
    ShinjukuPolicy policy(30'000);
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 40'000))
        << "no waiters: let it run";
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 20'000)) << "inside slice";
    EXPECT_TRUE(policy.ShouldPreempt(0, 1, 31'000));
}

TEST(Shinjuku, DecisionsCarryTheSlice)
{
    ShinjukuPolicy policy(30'000);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->slice_ns, 30'000u);
}

TEST(Shinjuku, PreemptedThreadGoesToQueueBack)
{
    ShinjukuPolicy policy(30'000);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    ASSERT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1);
    // Thread 1 preempted: round-robin puts it behind thread 2.
    policy.OnMessage(Msg(MsgType::kThreadPreempted, 1));
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 2);
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1);
}

TEST(MultiQueue, StrictClassIsServedFirst)
{
    MultiQueueShinjukuPolicy policy(30'000, 2);
    policy.SetThreadSlo(1, 1);  // lenient
    policy.SetThreadSlo(2, 0);  // strict
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->tid, 2) << "strict SLO class first";
    EXPECT_EQ(d->slo_class, 0u);
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1);
}

TEST(MultiQueue, UntaggedThreadsAreLenient)
{
    MultiQueueShinjukuPolicy policy(30'000, 2);
    policy.SetThreadSlo(2, 0);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));  // untagged
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 2);
}

TEST(MultiQueue, PreemptionConsidersClassOfWaiters)
{
    MultiQueueShinjukuPolicy policy(30'000, 2);
    policy.SetThreadSlo(1, 1);  // running, lenient
    policy.SetThreadSlo(2, 0);  // waiting, strict
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    EXPECT_TRUE(policy.ShouldPreempt(0, 1, 31'000));
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 29'000));
}

TEST(MultiQueue, StrictThreadPastItsSliceYieldsToALenientWaiter)
{
    MultiQueueShinjukuPolicy policy(30'000, 2);
    policy.SetThreadSlo(1, 0);  // running, strict
    policy.SetThreadSlo(2, 1);  // waiting, lenient
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 31'000)) << "nothing waits";
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 29'000)) << "inside slice";
    EXPECT_TRUE(policy.ShouldPreempt(0, 1, 31'000))
        << "past its slice, a strict thread yields to any waiter";
}

TEST(MultiQueue, DepthSumsAcrossClasses)
{
    MultiQueueShinjukuPolicy policy(30'000, 2);
    policy.SetThreadSlo(1, 0);
    policy.SetThreadSlo(2, 1);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    EXPECT_EQ(policy.RunQueueDepth(), 2u);
}

TEST(VmPolicy, RespectsPinning)
{
    VmPolicy policy(5'000'000);
    policy.PinVcpu(1, 0);
    policy.PinVcpu(2, 1);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));

    auto d0 = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d0.has_value());
    EXPECT_EQ(d0->tid, 1);
    EXPECT_FALSE(policy.PickNext(0, sim::TimeNs{0}).has_value())
        << "vCPU 2 is pinned elsewhere";
    EXPECT_EQ(policy.PickNext(1, sim::TimeNs{0})->tid, 2);
}

TEST(VmPolicy, QuantumPreemptionOnlyWithLocalWaiter)
{
    VmPolicy policy(5'000'000);
    policy.PinVcpu(1, 0);
    policy.PinVcpu(2, 0);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    ASSERT_TRUE(policy.PickNext(0, sim::TimeNs{0}).has_value());
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 6'000'000))
        << "no waiter on this core";
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    EXPECT_FALSE(policy.ShouldPreempt(0, 1, 4'000'000))
        << "inside quantum";
    EXPECT_TRUE(policy.ShouldPreempt(0, 1, 6'000'000));
}

TEST(VmPolicy, DecisionsCarryTheQuantum)
{
    VmPolicy policy(5'000'000);
    policy.PinVcpu(1, 0);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->slice_ns, 5'000'000u);
}

TEST(VmPolicy, FailedCommitRequeuesAtTheFrontOfItsCore)
{
    VmPolicy policy(5'000'000);
    policy.PinVcpu(1, 0);
    policy.PinVcpu(2, 0);
    policy.PinVcpu(3, 1);
    policy.OnMessage(Msg(MsgType::kThreadCreated, 1));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 2));
    policy.OnMessage(Msg(MsgType::kThreadCreated, 3));
    auto d = policy.PickNext(0, sim::TimeNs{0});
    ASSERT_TRUE(d.has_value());
    ASSERT_EQ(d->tid, 1);
    policy.OnDecisionFailed(*d);
    EXPECT_EQ(policy.RunQueueDepth(), 3u);
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 1) << "order kept";
    EXPECT_EQ(policy.PickNext(0, sim::TimeNs{0})->tid, 2);
    EXPECT_FALSE(policy.PickNext(0, sim::TimeNs{0}).has_value());
    EXPECT_EQ(policy.PickNext(1, sim::TimeNs{0})->tid, 3);
}

// Property sweep: for any interleaving of create/block/wake messages,
// a policy never returns a thread that is blocked or dead, and depth
// equals the number of runnable-but-unpicked threads.
enum class Kind { kShinjuku, kFifo, kMultiQueue };  // indexes `policies`

struct InvariantCase {
    Kind kind;
    int seed;
};

// Prints the seed alone; the instantiation's name says the policy.
void
PrintTo(const InvariantCase& c, std::ostream* os)
{
    *os << c.seed;
}

std::vector<InvariantCase>
CasesFor(Kind kind)
{
    std::vector<InvariantCase> cases;
    for (int seed = 1; seed <= 8; ++seed) cases.push_back({kind, seed});
    return cases;
}

class PolicyInvariantTest : public ::testing::TestWithParam<InvariantCase> {
};

TEST_P(PolicyInvariantTest, NeverSchedulesNonRunnableThreads)
{
    const InvariantCase c = GetParam();
    sim::Rng rng(static_cast<std::uint64_t>(c.seed));
    ShinjukuPolicy shinjuku(30'000);
    FifoPolicy fifo;
    MultiQueueShinjukuPolicy multi_queue(30'000, 2);
    ghost::SchedPolicy* const policies[] = {&shinjuku, &fifo, &multi_queue};
    ghost::SchedPolicy& policy = *policies[static_cast<int>(c.kind)];

    enum class S { kQueuedOrRunning, kBlocked, kDead };
    std::map<Tid, S> state;
    std::set<Tid> pickable;  // runnable and in the queue

    for (int step = 0; step < 2000; ++step) {
        const int action = static_cast<int>(rng.NextBounded(5));
        if (action == 0 || state.empty()) {
            const Tid tid = static_cast<Tid>(state.size() + 1);
            state[tid] = S::kQueuedOrRunning;
            pickable.insert(tid);
            // Only the multi-queue policy reads the tag: both classes fill.
            multi_queue.SetThreadSlo(tid, static_cast<std::uint32_t>(tid % 2));
            policy.OnMessage(Msg(MsgType::kThreadCreated, tid));
        } else {
            // Pick a random existing thread.
            auto it = state.begin();
            std::advance(it, static_cast<long>(
                                 rng.NextBounded(state.size())));
            const Tid tid = it->first;
            switch (action) {
              case 1:  // pick for a core
                if (!pickable.empty()) {
                    auto d = policy.PickNext(0, sim::TimeNs{0});
                    if (d) {
                        EXPECT_TRUE(pickable.count(d->tid))
                            << "picked non-runnable tid " << d->tid;
                        pickable.erase(d->tid);
                    }
                }
                break;
              case 2:  // block (only threads not in the queue can block)
                if (it->second == S::kQueuedOrRunning &&
                    !pickable.count(tid)) {
                    it->second = S::kBlocked;
                    policy.OnMessage(Msg(MsgType::kThreadBlocked, tid));
                }
                break;
              case 3:  // wake
                if (it->second == S::kBlocked) {
                    it->second = S::kQueuedOrRunning;
                    pickable.insert(tid);
                    policy.OnMessage(Msg(MsgType::kThreadWakeup, tid));
                }
                break;
              case 4:  // die (when not queued)
                if (!pickable.count(tid) && it->second != S::kDead) {
                    it->second = S::kDead;
                    policy.OnMessage(Msg(MsgType::kThreadDead, tid));
                }
                break;
            }
        }
        EXPECT_EQ(policy.RunQueueDepth(), pickable.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyInvariantTest,
                         ::testing::ValuesIn(CasesFor(Kind::kShinjuku)));
INSTANTIATE_TEST_SUITE_P(FifoSeeds, PolicyInvariantTest,
                         ::testing::ValuesIn(CasesFor(Kind::kFifo)));
INSTANTIATE_TEST_SUITE_P(MultiQueueSeeds, PolicyInvariantTest,
                         ::testing::ValuesIn(CasesFor(Kind::kMultiQueue)));

}  // namespace
}  // namespace wave::sched
