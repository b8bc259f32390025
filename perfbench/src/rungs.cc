#include "rungs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_map>

#include "channel/mmio_queue.h"
#include "check/coherence.h"
#include "check/hb.h"
#include "check/protocol.h"
#include "host.h"
#include "pcie/mmio.h"
#include "sched/fifo.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "wave/txn.h"

namespace perfbench {

using namespace wave;
using sim::DurationNs;
using sim::Simulator;
using sim::Task;

namespace {

/** Repetitions per rung; the fastest is reported. */
constexpr int kReps = 5;

void
Require(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "rung self-check failed: %s\n", what);
        std::abort();
    }
}

/** A word that differs for every i, so stale data cannot pass a check. */
std::uint64_t
Pattern(std::uint64_t i)
{
    return i * 0x9e3779b97f4a7c15ull + 0x5bd1e995ull;
}

/** Fastest of kReps runs of @p rep, which returns seconds for @p ops. */
double
FastestNs(int ops, const std::function<double()>& rep)
{
    double best = 0;
    for (int r = 0; r < kReps; ++r) {
        const double s = rep();
        best = r == 0 ? s : std::min(best, s);
    }
    return best * 1e9 / ops;
}

/** Runs @p task to completion on @p sim and returns the host seconds. */
double
RunTimed(Simulator& sim, Task<> task)
{
    sim.Spawn(std::move(task));
    return TimeS([&] { sim.Run(); });
}

// --- sim -------------------------------------------------------------

constexpr int kEventOps = 1 << 18;

/** Schedule + execute of a trivial event, in batches of 1024. */
double
SimEventRep()
{
    Simulator sim;
    std::uint64_t ran = 0;
    const double s = TimeS([&] {
        for (int round = 0; round < kEventOps / 1024; ++round) {
            for (int i = 0; i < 1024; ++i) {
                sim.Schedule(DurationNs(static_cast<std::uint64_t>(i % 64)),
                             [&ran] { ++ran; });
            }
            sim.Run();
        }
    });
    Require(ran == kEventOps && sim.EventsExecuted() == kEventOps,
            "sim.event: every scheduled event runs once");
    return s;
}

Task<>
DelayLoop(Simulator& sim, int n, int& resumed)
{
    for (int i = 0; i < n; ++i) {
        co_await sim.Delay(1);
        ++resumed;
    }
}

/** One coroutine Delay round trip: schedule, pop, resume. */
double
SimResumeRep()
{
    Simulator sim;
    int resumed = 0;
    const double s = RunTimed(sim, DelayLoop(sim, kEventOps, resumed));
    Require(resumed == kEventOps &&
                sim.Now().ns() == static_cast<std::uint64_t>(kEventOps),
            "sim.resume: the coroutine resumes once per Delay");
    return s;
}

// --- pcie ------------------------------------------------------------

constexpr int kMmioOps = 1 << 16;
constexpr std::size_t kMmioWords = 512;  ///< 4 KiB of cycling offsets

Task<>
WcWriteLoop(pcie::HostMmioMapping& map, int n)
{
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = Pattern(static_cast<std::uint64_t>(i));
        co_await map.Write((static_cast<std::size_t>(i) % kMmioWords) * 8,
                           &v, sizeof v);
        co_await map.Sfence();
    }
}

/** A write-combined 8-byte store plus the sfence that drains it. */
double
MmioWriteRep()
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 16);
    pcie::HostMmioMapping map(dram, pcie::PteType::kWriteCombining);
    const double s = RunTimed(sim, WcWriteLoop(map, kMmioOps));
    // The last lap's stores have all landed; read them back.
    for (int i = kMmioOps - static_cast<int>(kMmioWords); i < kMmioOps; ++i) {
        std::uint64_t got = 0;
        dram.Backing().ReadRaw((static_cast<std::size_t>(i) % kMmioWords) * 8,
                               &got, sizeof got);
        Require(got == Pattern(static_cast<std::uint64_t>(i)),
                "pcie.mmio_write: NIC DRAM holds the written word");
    }
    Require(map.Stats().wc_flushes == kMmioOps,
            "pcie.mmio_write: one WC drain per sfence");
    return s;
}

Task<>
WtReadLoop(pcie::HostMmioMapping& map, int n, int& mismatches)
{
    for (int i = 0; i < n; ++i) {
        const std::size_t word = static_cast<std::size_t>(i) % 8;
        std::uint64_t got = 0;
        co_await map.Read(word * 8, &got, sizeof got);
        if (got != Pattern(word)) ++mismatches;
    }
}

/** An 8-byte read served from the host's write-through line cache. */
double
MmioReadRep()
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 16);
    for (std::uint64_t w = 0; w < 8; ++w) {
        const std::uint64_t v = Pattern(w);
        dram.Backing().WriteRaw(w * 8, &v, sizeof v);
    }
    pcie::HostMmioMapping map(dram, pcie::PteType::kWriteThrough);
    int mismatches = 0;
    const double s = RunTimed(sim, WtReadLoop(map, kMmioOps, mismatches));
    Require(mismatches == 0, "pcie.mmio_read: reads return the line's data");
    Require(map.Stats().cache_hits == kMmioOps - 1,
            "pcie.mmio_read: every read after the fill hits the cache");
    return s;
}

// --- channel ---------------------------------------------------------

constexpr int kChannelOps = 1 << 14;

Task<>
ChannelLoop(Simulator& sim, channel::HostProducer& producer,
            channel::NicConsumer& consumer, int n, int& mismatches)
{
    std::vector<channel::Bytes> batch(1, channel::Bytes(48));
    channel::Bytes got;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = Pattern(static_cast<std::uint64_t>(i));
        std::memcpy(batch[0].data(), &v, sizeof v);
        co_await producer.Send(batch);
        while (!co_await consumer.PollInto(got)) {
            co_await sim.Delay(100);  // posted stores still in flight
        }
        std::uint64_t back = 0;
        std::memcpy(&back, got.data(), sizeof back);
        if (back != v) ++mismatches;
    }
}

/** HostProducer::Send of one message + NicConsumer::PollInto of it. */
double
ChannelRep()
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 20);
    channel::MmioQueue queue(dram, 0,
                             channel::QueueConfig{.capacity = 256,
                                                  .payload_size = 48,
                                                  .sync_interval = 32});
    channel::HostProducer producer(queue, pcie::PteType::kWriteCombining,
                                   pcie::PteType::kWriteThrough);
    channel::NicConsumer consumer(queue, pcie::PteType::kWriteBack);
    int mismatches = 0;
    const double s = RunTimed(
        sim, ChannelLoop(sim, producer, consumer, kChannelOps, mismatches));
    Require(mismatches == 0 && consumer.Consumed() == kChannelOps,
            "channel.roundtrip: the NIC polls back each message sent");
    return s;
}

// --- wave ------------------------------------------------------------

Task<>
TxnLoop(Simulator& sim, NicTxnEndpoint& nic, HostTxnEndpoint& host, int n,
        int& mismatches)
{
    api::Bytes payload(32);
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = Pattern(static_cast<std::uint64_t>(i));
        std::memcpy(payload.data(), &v, sizeof v);
        const api::TxnId id = nic.TxnCreate(payload);
        co_await nic.TxnsCommit(/*send_msix=*/false);
        auto txn = co_await host.PollTxns(/*flush_first=*/true);
        std::uint64_t back = 0;
        if (txn) std::memcpy(&back, txn->payload.data(), sizeof back);
        if (!txn || txn->id != id || back != v) ++mismatches;
        std::vector<api::TxnOutcome> outcomes(
            1, api::TxnOutcome{id, api::TxnStatus::kCommitted});
        co_await host.SetTxnsOutcomes(outcomes);
        outcomes.clear();
        while (outcomes.empty()) {
            co_await sim.Delay(100);  // posted outcome still in flight
            outcomes = co_await nic.PollTxnsOutcomes(8);
        }
        if (outcomes.size() != 1 || outcomes[0].txn_id != id) ++mismatches;
    }
}

/** TxnCreate + TxnsCommit, host PollTxns, outcome back to the NIC. */
double
TxnRep()
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 20);
    channel::MmioQueue decisions(
        dram, 0,
        channel::QueueConfig{.capacity = 64,
                             .payload_size = TxnWire::DecisionPayloadSize(32),
                             .sync_interval = 8});
    channel::MmioQueue outcomes(
        dram, 1 << 16,
        channel::QueueConfig{.capacity = 64,
                             .payload_size = TxnWire::kOutcomeSize,
                             .sync_interval = 8});
    channel::NicProducer nic_decisions(decisions, pcie::PteType::kWriteBack);
    channel::HostConsumer host_decisions(decisions,
                                         pcie::PteType::kWriteThrough,
                                         pcie::PteType::kWriteCombining);
    channel::HostProducer host_outcomes(outcomes,
                                        pcie::PteType::kWriteCombining,
                                        pcie::PteType::kWriteThrough);
    channel::NicConsumer nic_outcomes(outcomes, pcie::PteType::kWriteBack);
    NicTxnEndpoint nic(nic_decisions, nic_outcomes, nullptr);
    HostTxnEndpoint host(host_decisions, host_outcomes, nullptr);
    int mismatches = 0;
    const double s =
        RunTimed(sim, TxnLoop(sim, nic, host, kChannelOps, mismatches));
    Require(mismatches == 0,
            "wave.txn: the host sees each decision, the NIC its outcome");
    return s;
}

// --- check -----------------------------------------------------------

constexpr int kHookOps = 1 << 17;
constexpr std::size_t kHookLines = 256;

/** CoherenceChecker OnWrite + OnRead of one line (per hook call). */
double
CoherenceRep()
{
    Simulator sim;
    check::CoherenceChecker checker(sim);
    const int region = 0;
    const double s = TimeS([&] {
        for (int i = 0; i < kHookOps; ++i) {
            const std::size_t off =
                (static_cast<std::size_t>(i) % kHookLines) * 64;
            checker.OnWrite(&region, check::Domain::kNic, off, 8, "write");
            checker.OnRead(&region, check::Domain::kNic, off, 8,
                           /*from_host_cache=*/false,
                           /*tolerate_stale=*/false, "read");
        }
    });
    Require(checker.Stats().writes == kHookOps &&
                checker.Stats().reads == kHookOps &&
                checker.Violations().empty(),
            "check.coherence: every hook is counted, none reports");
    return s / 2;
}

/**
 * HbRaceDetector OnAccess(write) + OnRelease with a fresh tag per call,
 * as mmio_queue.cc issues them (per hook call).
 */
double
HbRep()
{
    Simulator sim;
    check::HbRaceDetector hb(sim);
    const sim::ActorId actor = hb.RegisterActor("rung");
    const int region = 0;
    const double s = TimeS([&] {
        for (int i = 0; i < kHookOps; ++i) {
            const std::size_t off =
                (static_cast<std::size_t>(i) % kHookLines) * 64;
            hb.OnAccess(actor, &region, off, 8, /*is_write=*/true, "write");
            hb.OnRelease(actor, &region, static_cast<std::uint64_t>(i));
        }
    });
    Require(hb.Stats().writes == kHookOps && hb.Stats().releases == kHookOps &&
                hb.Races().empty(),
            "check.hb: every hook is counted, none reports");
    return s / 2;
}

/** ProtocolChecker OnStreamSend + OnStreamRecv in order (per hook). */
double
ProtocolRep()
{
    Simulator sim;
    check::ProtocolChecker protocol(sim);
    const int scope = 0;
    const double s = TimeS([&] {
        for (int i = 0; i < kHookOps; ++i) {
            const auto seq = static_cast<std::uint64_t>(i);
            protocol.OnStreamSend(&scope, seq, check::Domain::kHost, "send");
            protocol.OnStreamRecv(&scope, seq, check::Domain::kNic, "recv");
        }
    });
    Require(protocol.Stats().stream_sends == kHookOps &&
                protocol.Stats().stream_recvs == kHookOps &&
                protocol.Violations().empty(),
            "check.protocol: every hook is counted, none reports");
    return s / 2;
}

// --- stats and sched -------------------------------------------------

constexpr int kRecordOps = 1 << 20;

/** stats::Histogram::Record of a spread of latencies. */
double
RecordRep()
{
    stats::Histogram histogram;
    std::uint64_t max = 0;
    const double s = TimeS([&] {
        for (int i = 0; i < kRecordOps; ++i) {
            const std::uint64_t v =
                Pattern(static_cast<std::uint64_t>(i)) >> 44;  // < 1 ms
            histogram.Record(v);
            max = std::max(max, v);
        }
    });
    Require(histogram.Count() == kRecordOps && histogram.Max() == max,
            "stats.record: every sample is counted");
    return s;
}

constexpr int kPickOps = 1 << 18;

/** FifoPolicy::OnMessage(wakeup) + PickNext of the woken thread. */
double
PickRep()
{
    sched::FifoPolicy policy;
    int mismatches = 0;
    const double s = TimeS([&] {
        for (int i = 0; i < kPickOps; ++i) {
            const ghost::Tid tid = 1000 + i % 64;
            ghost::GhostMessage message{};
            message.type = ghost::MsgType::kThreadWakeup;
            message.tid = tid;
            policy.OnMessage(message);
            const auto decision = policy.PickNext(i % 16, sim::TimeNs{});
            if (!decision || decision->tid != tid) ++mismatches;
        }
    });
    Require(mismatches == 0, "sched.pick: a pick returns the queued tid");
    return s;
}

}  // namespace

double
ReferenceRungS()
{
    constexpr int kHeapOps = kReferenceOps / 2;
    constexpr int kKeys = kReferenceOps / 8;  // 4 map operations per key
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        queue;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    bool ordered = true;
    int found = 0;
    const double s = TimeS([&] {
        for (int round = 0; round < kHeapOps / 4096; ++round) {
            for (int i = 0; i < 4096; ++i) {
                const std::uint64_t v =
                    Pattern(static_cast<std::uint64_t>(round * 4096 + i)) >>
                    20;
                queue.push(v);
                pushed += v;
            }
            std::uint64_t last = 0;
            while (!queue.empty()) {
                ordered = ordered && queue.top() >= last;
                last = queue.top();
                popped += last;
                queue.pop();
            }
        }
        for (int i = 0; i < kKeys; ++i) {
            const std::uint64_t key = Pattern(static_cast<std::uint64_t>(i));
            map[key] = ~key;
        }
        for (int lap = 0; lap < 3; ++lap) {
            for (int i = 0; i < kKeys; ++i) {
                const std::uint64_t key =
                    Pattern(static_cast<std::uint64_t>((i * 7919) % kKeys));
                const auto it = map.find(key);
                found += it != map.end() && it->second == ~key;
            }
        }
    });
    Require(ordered && popped == pushed,
            "ref: the heap pops every pushed key in order");
    Require(found == 3 * kKeys, "ref: the map finds every stored key");
    return s;
}

std::vector<Rung>
MeasureRungs()
{
    return {
        {"ref_ns", FastestNs(kReferenceOps, ReferenceRungS)},
        {"sim.event_ns", FastestNs(kEventOps, SimEventRep)},
        {"sim.resume_ns", FastestNs(kEventOps, SimResumeRep)},
        {"pcie.mmio_write_ns", FastestNs(kMmioOps, MmioWriteRep)},
        {"pcie.mmio_read_ns", FastestNs(kMmioOps, MmioReadRep)},
        {"channel.roundtrip_ns", FastestNs(kChannelOps, ChannelRep)},
        {"wave.txn_ns", FastestNs(kChannelOps, TxnRep)},
        {"check.coherence_ns", FastestNs(kHookOps, CoherenceRep)},
        {"check.hb_ns", FastestNs(kHookOps, HbRep)},
        {"check.protocol_ns", FastestNs(kHookOps, ProtocolRep)},
        {"stats.record_ns", FastestNs(kRecordOps, RecordRep)},
        {"sched.pick_ns", FastestNs(kPickOps, PickRep)},
    };
}

}  // namespace perfbench
