/**
 * @file
 * The virtual-time happens-before race detector (check/hb.h).
 *
 * Unit-level properties of the vector-clock engine first: program order
 * and release/acquire chains suppress reports, unsynchronized conflicts
 * are reported with tie-break vs virtual-time classification, and
 * AllowUnordered() annotations are honoured. Then seeded races through
 * the real MMIO queue endpoints: two producers driving one ring (an
 * aliasing bug no protocol edge orders) are caught with both access
 * sites attributed, while the correct single-producer flow — including
 * ring wraparound, where slot reuse is ordered only by the lazy
 * consumed-counter handshake — stays race-free. Last, the bounded sync
 * tables: a lapped slot still exposes the race, and a ring's table is
 * as large as its registered capacity.
 */
#include <gtest/gtest.h>

#include <vector>

#include "channel/mmio_queue.h"
#include "check/hb.h"
#include "check/protocol.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "wave/runtime.h"
#include "wave/shm_queue.h"

namespace wave {
namespace {

using namespace sim::time_literals;
using check::HbRaceDetector;
using check::RaceKind;

/** Runs a coroutine to completion on @p sim. */
template <typename MakeTask>
void
RunToCompletion(sim::Simulator& sim, MakeTask make_task)
{
    sim.Spawn(make_task());
    sim.Run();
}

// --- Vector-clock engine ---------------------------------------------

TEST(HbRaceDetector, ProgramOrderIsNotARace)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId actor = hb.RegisterActor("solo");
    int region = 0;

    hb.OnAccess(actor, &region, 0, 8, /*is_write=*/true, "first");
    hb.OnAccess(actor, &region, 0, 8, /*is_write=*/true, "second");
    hb.OnAccess(actor, &region, 0, 8, /*is_write=*/false, "third");

    EXPECT_TRUE(hb.Races().empty());
    EXPECT_EQ(hb.Stats().writes, 2u);
    EXPECT_EQ(hb.Stats().reads, 1u);
}

TEST(HbRaceDetector, UnsynchronizedWritesAtSameTimeAreTieBreakRaces)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    // Same timestamp, no happens-before edge: whichever ran first did
    // so purely by event-queue tie-break.
    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    hb.OnAccess(b, &region, 0, 8, true, "b-write");

    ASSERT_EQ(hb.Races().size(), 1u);
    const auto& race = hb.Races().front();
    EXPECT_EQ(race.kind, RaceKind::kTieBreak);
    EXPECT_STREQ(race.first.label, "a-write");
    EXPECT_STREQ(race.second.label, "b-write");
}

TEST(HbRaceDetector, UnsynchronizedWritesAcrossTimeAreVirtualTimeRaces)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(a, &region, 0, 8, true, "a-write");
        co_await sim.Delay(100);
        // 100 ns later and still no protocol edge: the order is this
        // run's timing luck, not a guarantee.
        hb.OnAccess(b, &region, 0, 8, true, "b-write");
    });

    ASSERT_EQ(hb.Races().size(), 1u);
    EXPECT_EQ(hb.Races().front().kind, RaceKind::kVirtualTime);
}

TEST(HbRaceDetector, ReleaseAcquireChainOrdersConflictingAccesses)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId producer = hb.RegisterActor("producer");
    const sim::ActorId consumer = hb.RegisterActor("consumer");
    int region = 0;
    int flag = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(producer, &region, 0, 8, true, "publish");
        hb.OnRelease(producer, &flag, 0);
        co_await sim.Delay(100);
        hb.OnAcquire(consumer, &flag, 0);
        hb.OnAccess(consumer, &region, 0, 8, false, "consume");
        // Even a consumer *write* (e.g. in-place ack) is ordered.
        hb.OnAccess(consumer, &region, 0, 8, true, "ack");
    });

    EXPECT_TRUE(hb.Races().empty());
    EXPECT_EQ(hb.Stats().releases, 1u);
    EXPECT_EQ(hb.Stats().acquires, 1u);
}

TEST(HbRaceDetector, AcquireWithoutMatchingReleaseDoesNotOrder)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;
    int flag = 0;

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(a, &region, 0, 8, true, "a-write");
        hb.OnRelease(a, &flag, /*tag=*/0);
        co_await sim.Delay(100);
        // The consumer acquires a *different* sync var (wrong slot tag):
        // no edge, so the conflict stays racy.
        hb.OnAcquire(b, &flag, /*tag=*/1);
        hb.OnAccess(b, &region, 0, 8, true, "b-write");
    });

    ASSERT_EQ(hb.Races().size(), 1u);
}

TEST(HbRaceDetector, ConcurrentReadsDoNotRaceButReadWriteDoes)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    const sim::ActorId c = hb.RegisterActor("c");
    int region = 0;

    hb.OnAccess(a, &region, 0, 8, false, "a-read");
    hb.OnAccess(b, &region, 0, 8, false, "b-read");
    EXPECT_TRUE(hb.Races().empty());

    hb.OnAccess(c, &region, 0, 8, true, "c-write");
    EXPECT_FALSE(hb.Races().empty());
}

TEST(HbRaceDetector, DistinctLinesNeverConflict)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    hb.OnAccess(a, &region, 0, 8, true, "line-0");
    hb.OnAccess(b, &region, HbRaceDetector::kLineSize, 8, true, "line-1");

    EXPECT_TRUE(hb.Races().empty());
}

TEST(HbRaceDetector, AllowUnorderedSuppressesTheReport)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    // A diagnostic snapshot line: readers tolerate any interleaving.
    hb.AllowUnordered(&region, 0, 8);
    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    hb.OnAccess(b, &region, 0, 8, true, "b-write");

    EXPECT_TRUE(hb.Races().empty());
    EXPECT_GT(hb.Stats().allowed_unordered, 0u);
}

TEST(HbRaceDetector, FailFastPanicsOnFirstRace)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    hb.SetFailFast(true);
    const sim::ActorId a = hb.RegisterActor("a");
    const sim::ActorId b = hb.RegisterActor("b");
    int region = 0;

    hb.OnAccess(a, &region, 0, 8, true, "a-write");
    EXPECT_DEATH(hb.OnAccess(b, &region, 0, 8, true, "b-write"),
                 "virtual-time race");
}

// --- Seeded races through the real queue endpoints -------------------

struct QueueWorld {
    sim::Simulator sim;
    machine::Machine machine{sim};
    WaveRuntime runtime{sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full()};
    HostToNicChannel chan;

    explicit QueueWorld(std::size_t capacity = 64)
    {
        channel::QueueConfig qc;
        qc.capacity = capacity;
        qc.payload_size = 32;
        qc.sync_interval = 2;
        chan = runtime.CreateHostToNicQueue(qc);
    }

    channel::Bytes
    Msg() const
    {
        return channel::Bytes(32);
    }
};

TEST(HbRaceDetector, TwoProducersSharingOneRingIsAVirtualTimeRace)
{
    QueueWorld w;
    // SEEDED BUG: a second producer endpoint aliases the same ring
    // storage (say, a restarted sender whose predecessor still holds
    // the queue). Each keeps its own head index, so both write absolute
    // slot 0 — and no flag/counter handshake orders producer against
    // producer.
    channel::HostProducer rogue(w.chan.host->Queue(),
                                pcie::PteType::kUncacheable,
                                pcie::PteType::kUncacheable);
    rogue.BindCheckers(w.runtime.Hb(), w.runtime.Protocol(),
                       w.runtime.Hb()->RegisterActor("rogue-producer"));

    RunToCompletion(w.sim, [&]() -> sim::Task<> {
        const std::vector<channel::Bytes> batch{w.Msg()};
        co_await w.chan.host->Send(batch);
        co_await w.sim.Delay(1_us);
        co_await rogue.Send(batch);
    });

    ASSERT_FALSE(w.runtime.Hb()->Races().empty());
    const auto& race = w.runtime.Hb()->Races().front();
    EXPECT_EQ(race.kind, RaceKind::kVirtualTime);
    EXPECT_TRUE(race.first.is_write);
    EXPECT_TRUE(race.second.is_write);
    EXPECT_STREQ(race.second.actor, "rogue-producer");
}

TEST(HbRaceDetector, SingleProducerConsumerFlowIsRaceFreeAcrossLaps)
{
    QueueWorld w(/*capacity=*/4);

    RunToCompletion(w.sim, [&]() -> sim::Task<> {
        // 3 laps of a 4-slot ring: every slot is reused, so the only
        // thing ordering a new write against the old read is the lazy
        // consumed-counter release/acquire chain.
        const std::vector<channel::Bytes> batch{w.Msg()};
        for (int i = 0; i < 12; ++i) {
            while ((co_await w.chan.host->Send(batch)) == 0) {
                co_await w.sim.Delay(100);
            }
            std::optional<channel::Bytes> got;
            while (!got.has_value()) {
                got = co_await w.chan.nic->Poll();
            }
        }
    });

    for (const auto& race : w.runtime.Hb()->Races()) {
        ADD_FAILURE() << race.Describe();
    }
    EXPECT_EQ(w.runtime.Hb()->Stats().writes, 12u);
    EXPECT_GT(w.runtime.Hb()->Stats().acquires, 0u);
    EXPECT_TRUE(w.runtime.Protocol()->Violations().empty());
}

// --- Bounded sync tables ----------------------------------------------

TEST(HbRaceDetector, LappedSyncSlotStillReportsTheRace)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    const sim::ActorId producer = hb.RegisterActor("producer");
    const sim::ActorId consumer = hb.RegisterActor("consumer");
    constexpr std::size_t kCapacity = 4;
    int ring = 0;
    hb.RegisterSync(&ring, kCapacity);
    hb.RegisterRegion(&ring, 0, kCapacity * HbRaceDetector::kLineSize);

    RunToCompletion(sim, [&]() -> sim::Task<> {
        hb.OnAccess(producer, &ring, 0, 8, true, "publish-t");
        hb.OnRelease(producer, &ring, /*tag=*/0);
        co_await sim.Delay(100);
        // SEEDED BUG: the producer laps slot 0 (tag t + capacity) before
        // the consumer has taken tag t, overwriting the payload.
        hb.OnAccess(producer, &ring, 0, 8, true, "publish-t+capacity");
        hb.OnRelease(producer, &ring, /*tag=*/kCapacity);
        co_await sim.Delay(100);
        // The late acquire of tag t finds t + capacity in the slot and
        // joins nothing, so the overwrite stays unordered.
        hb.OnAcquire(consumer, &ring, /*tag=*/0);
        hb.OnAccess(consumer, &ring, 0, 8, false, "consume-t");
    });

    ASSERT_FALSE(hb.Races().empty());
    const auto& race = hb.Races().front();
    EXPECT_STREQ(race.first.label, "publish-t+capacity");
    EXPECT_STREQ(race.second.label, "consume-t");
}

TEST(HbRaceDetector, LargeRingTableCoversItsCapacityAcrossLaps)
{
    sim::Simulator sim;
    HbRaceDetector hb(sim);
    check::ProtocolChecker protocol(sim);
    // Shaped like the shm transport's 4096-entry message queue. Bursts
    // of 1000 run the producer far more than 256 entries ahead of the
    // consumer, so a table of any fixed size below the capacity would
    // lap tags the consumer has yet to acquire and report races.
    ShmQueue queue(sim, 4096, 8);
    queue.BindCheckers(&hb, &protocol, hb.RegisterActor("host-producer"),
                       hb.RegisterActor("host-consumer"));

    RunToCompletion(sim, [&]() -> sim::Task<> {
        const std::vector<std::vector<std::byte>> burst(
            1000, std::vector<std::byte>(8));
        for (int round = 0; round < 5; ++round) {  // 5000: over a lap
            EXPECT_EQ(co_await queue.Send(burst), burst.size());
            for (std::size_t i = 0; i < burst.size(); ++i) {
                EXPECT_TRUE((co_await queue.Poll()).has_value());
            }
        }
    });

    for (const auto& race : hb.Races()) {
        ADD_FAILURE() << race.Describe();
    }
    EXPECT_EQ(hb.Stats().writes, 5000u);
    EXPECT_EQ(hb.Stats().reads, 5000u);
    EXPECT_TRUE(protocol.Violations().empty());
}

}  // namespace
}  // namespace wave
