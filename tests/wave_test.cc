/**
 * @file
 * Unit tests for the core Wave framework: runtime queue/agent lifecycle,
 * the transaction API (create/commit/poll/outcomes, with and without
 * MSI-X), the shared-memory baseline queue, and the watchdog.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "channel/bytes.h"
#include "machine/machine.h"
#include "sim/simulator.h"
#include "wave/api.h"
#include "wave/runtime.h"
#include "wave/shm_queue.h"
#include "wave/txn.h"
#include "wave/watchdog.h"

namespace wave {
namespace {

using api::OptimizationConfig;
using api::TxnOutcome;
using api::TxnStatus;
using sim::Simulator;
using sim::Task;
using namespace sim::time_literals;

#define CO_ASSERT(expr)                                     \
    do {                                                    \
        if (!(expr)) {                                      \
            ADD_FAILURE() << "CO_ASSERT failed: " << #expr; \
            co_return;                                      \
        }                                                   \
    } while (0)

api::Bytes
Payload(std::uint64_t v, std::size_t n = 40)
{
    api::Bytes b(n);
    std::memcpy(b.data(), &v, sizeof(v));
    return b;
}

std::uint64_t
PayloadValue(const api::Bytes& b)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data(), sizeof(v));
    return v;
}

struct RuntimeFixture {
    explicit RuntimeFixture(OptimizationConfig opt = OptimizationConfig::Full())
        : machine(sim), runtime(sim, machine, pcie::PcieConfig{}, opt)
    {
    }

    Simulator sim;
    machine::Machine machine;
    WaveRuntime runtime;
};

TEST(Runtime, AllocatesNonOverlappingQueues)
{
    RuntimeFixture f;
    channel::QueueConfig qc{.capacity = 16, .payload_size = 48};
    auto a = f.runtime.CreateHostToNicQueue(qc);
    auto b = f.runtime.CreateHostToNicQueue(qc);
    const std::size_t a_end =
        a.storage->Base() + a.storage->Layout().BytesNeeded();
    EXPECT_LE(a_end, b.storage->Base());
}

TEST(Runtime, EndToEndMessageFlow)
{
    RuntimeFixture f;
    auto chan = f.runtime.CreateHostToNicQueue(
        channel::QueueConfig{.capacity = 32, .payload_size = 48});

    f.sim.Spawn([](RuntimeFixture& fx, HostToNicChannel& c) -> Task<> {
        std::vector<api::Bytes> batch;
        for (std::uint64_t i = 0; i < 4; ++i) {
            batch.push_back(Payload(i, 48));
        }
        EXPECT_EQ(co_await c.host->Send(batch), 4u);
        co_await fx.sim.Delay(1_us);
        auto got = co_await c.nic->PollBatch(10);
        CO_ASSERT(got.size() == 4u);
        for (std::uint64_t i = 0; i < 4; ++i) {
            EXPECT_EQ(PayloadValue(got[i]), i);
        }
    }(f, chan));
    f.sim.Run();
}

TEST(Runtime, OptimizationConfigSelectsPteTypes)
{
    RuntimeFixture baseline{OptimizationConfig::None()};
    EXPECT_EQ(baseline.runtime.NicPte(), pcie::PteType::kUncacheable);

    RuntimeFixture full{OptimizationConfig::Full()};
    EXPECT_EQ(full.runtime.NicPte(), pcie::PteType::kWriteBack);
}

struct TxnFixture {
    explicit TxnFixture(bool with_msix = true)
        : machine(f_sim),
          runtime(f_sim, machine, pcie::PcieConfig{},
                  OptimizationConfig::Full())
    {
        decisions = runtime.CreateNicToHostQueue(channel::QueueConfig{
            .capacity = 32,
            .payload_size = TxnWire::DecisionPayloadSize(40)});
        outcomes = runtime.CreateHostToNicQueue(channel::QueueConfig{
            .capacity = 32, .payload_size = TxnWire::kOutcomeSize});
        if (with_msix) {
            msix = runtime.CreateMsiXVector();
        }
        nic = std::make_unique<NicTxnEndpoint>(*decisions.nic,
                                               *outcomes.nic, msix.get());
        host = std::make_unique<HostTxnEndpoint>(
            *decisions.host, *outcomes.host, msix.get());
    }

    Simulator f_sim;
    machine::Machine machine;
    WaveRuntime runtime;
    NicToHostChannel decisions;
    HostToNicChannel outcomes;
    std::unique_ptr<pcie::MsiXVector> msix;
    std::unique_ptr<NicTxnEndpoint> nic;
    std::unique_ptr<HostTxnEndpoint> host;
};

TEST(Txn, CreateCommitPollOutcomeRoundTrip)
{
    TxnFixture f;

    f.f_sim.Spawn([](TxnFixture& fx) -> Task<> {
        const api::TxnId id = fx.nic->TxnCreate(Payload(777));
        EXPECT_EQ(fx.nic->StagedCount(), 1u);
        EXPECT_EQ(co_await fx.nic->TxnsCommit(/*send_msix=*/true), 1u);
        EXPECT_EQ(fx.nic->StagedCount(), 0u);

        // Host: kicked by MSI-X, flush (software coherence), poll.
        co_await fx.host->WaitForKick();
        auto txn = co_await fx.host->PollTxns(/*flush_first=*/true);
        CO_ASSERT(txn.has_value());
        EXPECT_EQ(txn->id, id);
        EXPECT_EQ(PayloadValue(txn->payload), 777u);

        // Host commits and reports the outcome.
        std::vector<TxnOutcome> outcome_batch;
        outcome_batch.push_back(TxnOutcome{txn->id, TxnStatus::kCommitted});
        co_await fx.host->SetTxnsOutcomes(outcome_batch);
        co_await fx.f_sim.Delay(1_us);

        auto outs = co_await fx.nic->PollTxnsOutcomes(10);
        CO_ASSERT(outs.size() == 1u);
        EXPECT_EQ(outs[0].txn_id, id);
        EXPECT_EQ(outs[0].status, TxnStatus::kCommitted);
    }(f));
    f.f_sim.Run();
}

TEST(Txn, FailedCommitReportsCleanly)
{
    TxnFixture f;

    f.f_sim.Spawn([](TxnFixture& fx) -> Task<> {
        const api::TxnId id = fx.nic->TxnCreate(Payload(1));
        co_await fx.nic->TxnsCommit(true);
        co_await fx.host->WaitForKick();
        auto txn = co_await fx.host->PollTxns(true);
        CO_ASSERT(txn.has_value());

        // The target thread exited concurrently: the commit fails
        // without corrupting host state, and the agent learns why.
        std::vector<TxnOutcome> outcome_batch;
        outcome_batch.push_back(TxnOutcome{txn->id, TxnStatus::kFailedStale});
        co_await fx.host->SetTxnsOutcomes(outcome_batch);
        co_await fx.f_sim.Delay(1_us);
        auto outs = co_await fx.nic->PollTxnsOutcomes(10);
        CO_ASSERT(outs.size() == 1u);
        EXPECT_EQ(outs[0].txn_id, id);
        EXPECT_EQ(outs[0].status, TxnStatus::kFailedStale);
    }(f));
    f.f_sim.Run();
}

TEST(Txn, BatchedCommitPreservesOrder)
{
    TxnFixture f;

    f.f_sim.Spawn([](TxnFixture& fx) -> Task<> {
        std::vector<api::TxnId> ids;
        for (std::uint64_t i = 0; i < 5; ++i) {
            ids.push_back(fx.nic->TxnCreate(Payload(100 + i)));
        }
        EXPECT_EQ(co_await fx.nic->TxnsCommit(true), 5u);

        co_await fx.host->WaitForKick();
        for (std::uint64_t i = 0; i < 5; ++i) {
            auto txn = co_await fx.host->PollTxns(true);
            CO_ASSERT(txn.has_value());
            EXPECT_EQ(txn->id, ids[i]);
            EXPECT_EQ(PayloadValue(txn->payload), 100 + i);
        }
    }(f));
    f.f_sim.Run();
}

TEST(Txn, SkipMsixLeavesHostPolling)
{
    TxnFixture f;

    f.f_sim.Spawn([](TxnFixture& fx) -> Task<> {
        fx.nic->TxnCreate(Payload(5));
        // The RPC stack skips the MSI-X (§4.3); the host polls instead.
        co_await fx.nic->TxnsCommit(/*send_msix=*/false);
        EXPECT_EQ(fx.msix->SendCount(), 0u);

        auto txn = co_await fx.host->PollTxns(true);
        CO_ASSERT(txn.has_value());
        EXPECT_EQ(PayloadValue(txn->payload), 5u);
    }(f));
    f.f_sim.Run();
}

TEST(Txn, PrefetchedPollAvoidsPcieRead)
{
    TxnFixture f;

    f.f_sim.Spawn([](TxnFixture& fx) -> Task<> {
        fx.nic->TxnCreate(Payload(9));
        co_await fx.nic->TxnsCommit(false);

        co_await fx.host->PrefetchTxns();
        co_await fx.f_sim.Delay(1_us);  // overlapped kernel work
        const auto t0 = fx.f_sim.Now();
        auto txn = co_await fx.host->PollTxns(/*flush_first=*/false);
        const auto cost = fx.f_sim.Now() - t0;
        CO_ASSERT(txn.has_value());
        EXPECT_LE(cost, pcie::PcieConfig{}.cache_hit_ns);
    }(f));
    f.f_sim.Run();
}

class AgentKillTest : public ::testing::Test {};

/** Minimal agent: counts loop iterations until killed. */
class CountingAgent : public Agent {
  public:
    explicit CountingAgent(int& iterations) : iterations_(iterations) {}

    Task<>
    Run(AgentContext& ctx) override
    {
        while (!ctx.StopRequested()) {
            co_await ctx.Sim().Delay(1_us);
            ++iterations_;
        }
    }

  private:
    int& iterations_;
};

TEST(AgentLifecycle, StartRunsAgentOnNicCore)
{
    RuntimeFixture f;
    int iterations = 0;
    const AgentId id = f.runtime.StartWaveAgent(
        std::make_shared<CountingAgent>(iterations), /*nic_core=*/0);
    f.sim.RunFor(10_us);
    EXPECT_TRUE(f.runtime.AgentAlive(id));
    EXPECT_GE(iterations, 9);
}

TEST(AgentLifecycle, KillStopsAgentAtNextPoll)
{
    RuntimeFixture f;
    int iterations = 0;
    const AgentId id = f.runtime.StartWaveAgent(
        std::make_shared<CountingAgent>(iterations), 0);
    f.sim.RunFor(5_us);
    f.runtime.KillWaveAgent(id);
    f.sim.RunFor(5_us);
    EXPECT_FALSE(f.runtime.AgentAlive(id));
    const int at_kill = iterations;
    f.sim.RunFor(10_us);
    EXPECT_EQ(iterations, at_kill) << "agent kept running after kill";
}

TEST(AgentLifecycle, RestartAfterKill)
{
    RuntimeFixture f;
    int first_run = 0;
    int second_run = 0;
    const AgentId first = f.runtime.StartWaveAgent(
        std::make_shared<CountingAgent>(first_run), 0);
    f.sim.RunFor(5_us);
    f.runtime.KillWaveAgent(first);
    f.sim.RunFor(2_us);
    ASSERT_FALSE(f.runtime.AgentAlive(first));

    // Restart: a fresh agent instance re-pulls state and continues
    // (the host kernel remained the source of truth).
    const AgentId second = f.runtime.StartWaveAgent(
        std::make_shared<CountingAgent>(second_run), 0);
    f.sim.RunFor(5_us);
    EXPECT_TRUE(f.runtime.AgentAlive(second));
    EXPECT_GT(second_run, 0);
}

TEST(Watchdog, FiresWhenDecisionsStop)
{
    Simulator sim;
    bool expired = false;
    Watchdog dog(sim, /*timeout=*/20_ms, /*check_interval=*/1_ms,
                 [&] { expired = true; });
    dog.Arm();
    sim.RunFor(25_ms);
    EXPECT_TRUE(expired);
    EXPECT_TRUE(dog.Expired());
}

TEST(Watchdog, StaysQuietWhileDecisionsFlow)
{
    Simulator sim;
    bool expired = false;
    Watchdog dog(sim, 20_ms, 1_ms, [&] { expired = true; });
    dog.Arm();

    // A "healthy agent" producing a decision every 5 ms.
    sim.Spawn([](Simulator& s, Watchdog& d) -> Task<> {
        for (int i = 0; i < 20; ++i) {
            co_await s.Delay(5_ms);
            d.NoteDecision();
        }
    }(sim, dog));
    sim.RunFor(100_ms);
    EXPECT_FALSE(expired);
}

TEST(Watchdog, DisarmSuppressesExpiry)
{
    Simulator sim;
    bool expired = false;
    Watchdog dog(sim, 20_ms, 1_ms, [&] { expired = true; });
    dog.Arm();
    sim.RunFor(5_ms);
    dog.Disarm();  // planned upgrade
    sim.RunFor(100_ms);
    EXPECT_FALSE(expired);
}

TEST(Watchdog, KillsAndAllowsRestart)
{
    // Integration: watchdog kills a stuck agent; a replacement starts.
    RuntimeFixture f;
    int healthy_iters = 0;

    /** An agent that wedges: stops polling after 3 iterations. */
    class WedgingAgent : public Agent {
      public:
        Task<>
        Run(AgentContext& ctx) override
        {
            for (int i = 0; i < 3; ++i) {
                co_await ctx.Sim().Delay(1_ms);
            }
            // Wedge: never poll StopRequested again, just idle forever.
            for (;;) {
                co_await ctx.Sim().Delay(1000_ms);
            }
        }
    };

    const AgentId stuck = f.runtime.StartWaveAgent(
        std::make_shared<WedgingAgent>(), 0);

    bool restarted = false;
    Watchdog dog(f.sim, 20_ms, 1_ms, [&] {
        f.runtime.KillWaveAgent(stuck);
        f.runtime.StartWaveAgent(
            std::make_shared<CountingAgent>(healthy_iters), 0);
        restarted = true;
    });
    dog.Arm();

    f.sim.RunFor(50_ms);
    EXPECT_TRUE(restarted);
    EXPECT_GT(healthy_iters, 0) << "replacement agent did not run";
}

TEST(ShmQueue, DeliversWithCoherentCosts)
{
    Simulator sim;
    ShmQueue queue(sim, 16, 40);

    sim.Spawn([](Simulator& s, ShmQueue& q) -> Task<> {
        std::vector<api::Bytes> batch;
        batch.push_back(Payload(3));
        const auto t0 = s.Now();
        co_await q.Send(batch);
        const auto send_cost = s.Now() - t0;
        EXPECT_LT(send_cost, 100u) << "shared-memory send must be cheap";

        auto got = co_await q.Poll();
        CO_ASSERT(got.has_value());
        EXPECT_EQ(PayloadValue(*got), 3u);
        EXPECT_FALSE((co_await q.Poll()).has_value());
    }(sim, queue));
    sim.Run();
}

TEST(ShmQueue, TwoPhasePollPaysOnlyForTheWaitingPhase)
{
    // Ready() on an empty queue costs one empty-flag miss; Ready() then
    // Take() on a queued entry costs one cross-core read. That is what
    // Poll() costs in each case. Each phase runs in its own process,
    // whose spawn is one more event.
    Simulator sim;
    ShmQueue queue(sim, 16, 40);
    const ShmCosts costs;
    bool ready = true;
    api::Bytes got;

    std::uint64_t events = sim.EventsExecuted();
    sim::TimeNs start = sim.Now();
    sim.Spawn([](ShmQueue& q, bool& r) -> Task<> {
        r = co_await q.Ready();
    }(queue, ready));
    sim.Run();
    EXPECT_FALSE(ready);
    EXPECT_EQ(sim.EventsExecuted() - events, 2u);
    EXPECT_EQ(sim.Now() - start, costs.empty_poll_ns);

    sim.Spawn([](ShmQueue& q) -> Task<> {
        std::vector<api::Bytes> batch;
        batch.push_back(Payload(5));
        co_await q.Send(batch);
    }(queue));
    sim.Run();

    events = sim.EventsExecuted();
    start = sim.Now();
    sim.Spawn([](ShmQueue& q, bool& r, api::Bytes& out) -> Task<> {
        r = co_await q.Ready();
        if (r) co_await q.Take(out);
    }(queue, ready, got));
    sim.Run();
    EXPECT_TRUE(ready);
    EXPECT_EQ(PayloadValue(got), 5u);
    EXPECT_EQ(sim.EventsExecuted() - events, 2u);
    EXPECT_EQ(sim.Now() - start, costs.read_entry_ns);
    EXPECT_EQ(queue.Size(), 0u);
}

TEST(ShmQueue, RespectsCapacity)
{
    Simulator sim;
    ShmQueue queue(sim, 2, 40);

    sim.Spawn([](ShmQueue& q) -> Task<> {
        std::vector<api::Bytes> batch;
        for (std::uint64_t i = 0; i < 5; ++i) batch.push_back(Payload(i));
        EXPECT_EQ(co_await q.Send(batch), 2u);
    }(queue));
    sim.Run();
}

}  // namespace
}  // namespace wave

namespace wave {
namespace {

TEST(Runtime, DmaQueueCreationAndUse)
{
    RuntimeFixture f;
    auto queue = f.runtime.CreateDmaQueue(
        channel::QueueConfig{.capacity = 32, .payload_size = 48},
        pcie::DmaInitiator::kNic);

    f.sim.Spawn([](RuntimeFixture& fx,
                   channel::DmaQueue& q) -> sim::Task<> {
        std::vector<api::Bytes> batch;
        batch.push_back(Payload(5, 48));
        EXPECT_EQ(co_await q.Send(batch, /*sync=*/true), 1u);
        auto got = co_await q.Poll();
        CO_ASSERT(got.has_value());
        EXPECT_EQ(PayloadValue(*got), 5u);
        (void)fx;
    }(f, *queue));
    f.sim.Run();
}

TEST(Runtime, DramExhaustionIsAFatalConfigError)
{
    Simulator sim;
    machine::Machine machine(sim);
    // A tiny 8 KiB window fits one small queue but not two.
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        OptimizationConfig::Full(), /*nic_dram_bytes=*/8192);
    auto first = runtime.CreateHostToNicQueue(
        channel::QueueConfig{.capacity = 64, .payload_size = 48});
    EXPECT_DEATH(
        {
            auto second = runtime.CreateHostToNicQueue(
                channel::QueueConfig{.capacity = 64, .payload_size = 48});
            (void)second;
        },
        "NIC DRAM window exhausted");
}

TEST(Runtime, DramBackingHoldsOnlyTheWindowsHandedOut)
{
    RuntimeFixture f;
    pcie::MemoryRegion& backing = f.runtime.Dram().Backing();
    EXPECT_EQ(backing.Size(), 0u);

    const channel::QueueConfig messages{.capacity = 64, .payload_size = 48};
    const channel::QueueConfig decisions{.capacity = 32, .payload_size = 100};
    auto to_nic = f.runtime.CreateHostToNicQueue(messages);
    const std::uint64_t mark = 0x5eed;
    backing.WriteRaw(to_nic.storage->Base(), &mark, sizeof(mark));
    auto to_host = f.runtime.CreateNicToHostQueue(decisions);

    const auto aligned = [](std::size_t bytes) {
        constexpr std::size_t kLine = pcie::PcieConfig::kLineSize;
        return (bytes + kLine - 1) / kLine * kLine;
    };
    const std::size_t first =
        aligned(channel::RingLayout(messages).BytesNeeded());
    const std::size_t second =
        aligned(channel::RingLayout(decisions).BytesNeeded());
    EXPECT_EQ(backing.Size(), first + second);
    EXPECT_EQ(to_host.storage->Base(), first);

    // The fresh window reads as zero, and growing the backing for it
    // kept the bytes already stored in the first.
    std::vector<std::byte> window(second, std::byte{0xff});
    backing.ReadRaw(first, window.data(), second);
    EXPECT_EQ(std::count(window.begin(), window.end(), std::byte{0}),
              static_cast<std::ptrdiff_t>(second));
    std::uint64_t read = 0;
    backing.ReadRaw(to_nic.storage->Base(), &read, sizeof(read));
    EXPECT_EQ(read, mark);
}

}  // namespace
}  // namespace wave
