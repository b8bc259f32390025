/**
 * @file
 * Ablation bench: the §5.3 communication design choices, measured on
 * the queue primitives directly.
 *
 * The default mode prints, in simulated time, the per-message cost of
 * the host->NIC send path under each PTE strategy, WT read caching +
 * prefetch on the receive path, sync vs async DMA (iPipe's 2-7x
 * insight), and DMA batching.
 *
 * `--json <path>` instead times the implementation itself in wall-clock
 * time (the event loop and an MMIO round trip), so regressions show up
 * independently of the modelled latencies (BENCH_simcore.json).
 */
#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "channel/dma_queue.h"
#include "channel/mmio_queue.h"
#include "sim/alloc_guard.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "stats/table.h"

namespace {

using namespace wave;
using channel::Bytes;
using channel::QueueConfig;
using sim::Simulator;
using sim::Task;
using sim::DurationNs;
using sim::TimeNs;

Bytes
Msg(std::uint64_t v)
{
    Bytes b(48);
    std::memcpy(b.data(), &v, sizeof(v));
    return b;
}

/** Simulated per-message send cost for a PTE strategy, batch of 16. */
DurationNs
MmioSendCost(pcie::PteType write_type)
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 20);
    channel::MmioQueue queue(dram, 0,
                             QueueConfig{.capacity = 64,
                                         .payload_size = 48});
    channel::HostProducer producer(queue, write_type,
                                   pcie::PteType::kWriteThrough);
    DurationNs cost{};
    sim.Spawn([](Simulator& s, channel::HostProducer& p,
                 DurationNs& out) -> Task<> {
        std::vector<Bytes> batch;
        for (std::uint64_t i = 0; i < 16; ++i) batch.push_back(Msg(i));
        const TimeNs t0 = s.Now();
        co_await p.Send(batch);
        out = (s.Now() - t0) / 16;
    }(sim, producer, cost));
    sim.Run();
    return cost;
}

/** Simulated receive cost with/without WT caching and prefetch. */
DurationNs
MmioReceiveCost(bool write_through, bool prefetch)
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 20);
    channel::MmioQueue queue(dram, 0,
                             QueueConfig{.capacity = 64,
                                         .payload_size = 48});
    channel::NicProducer producer(queue, pcie::PteType::kWriteBack);
    channel::HostConsumer consumer(
        queue,
        write_through ? pcie::PteType::kWriteThrough
                      : pcie::PteType::kUncacheable,
        pcie::PteType::kWriteCombining);
    DurationNs cost{};
    sim.Spawn([](Simulator& s, channel::NicProducer& p,
                 channel::HostConsumer& c, bool pf, DurationNs& out) -> Task<> {
        co_await p.Send(Msg(7));
        if (pf) {
            co_await c.PrefetchNext();
            co_await s.Delay(1'000);  // overlapped kernel work
        }
        const TimeNs t0 = s.Now();
        co_await c.Poll(/*flush_first=*/!pf);
        out = s.Now() - t0;
    }(sim, producer, consumer, prefetch, cost));
    sim.Run();
    return cost;
}

/** Simulated per-message DMA cost, batched or singly, sync or async. */
DurationNs
DmaSendCost(std::size_t batch_size, bool sync)
{
    Simulator sim;
    pcie::DmaEngine dma(sim, pcie::PcieConfig{});
    channel::DmaQueue queue(sim, dma, pcie::DmaInitiator::kNic,
                            QueueConfig{.capacity = 256,
                                        .payload_size = 48,
                                        .sync_interval = 64});
    DurationNs cost{};
    sim.Spawn([](Simulator& s, channel::DmaQueue& q, std::size_t n,
                 bool sy, DurationNs& out) -> Task<> {
        const TimeNs t0 = s.Now();
        std::size_t sent = 0;
        while (sent < 128) {
            std::vector<Bytes> batch;
            for (std::size_t i = 0; i < n; ++i) batch.push_back(Msg(i));
            sent += co_await q.Send(batch, sy);
        }
        out = (s.Now() - t0) / 128;
    }(sim, queue, batch_size, sync, cost));
    sim.Run();
    return cost;
}

void
PrintDesignChoiceTables()
{
    bench::Banner("EXP-ABL-QUEUE",
                  "§5.3 ablation: queue transport design choices");

    stats::Table send({"host->NIC send path (per msg, batch=16)",
                       "cost"});
    send.AddRow({"uncacheable stores (baseline)",
                 bench::FmtNs(MmioSendCost(pcie::PteType::kUncacheable).ToDouble())});
    send.AddRow({"write-combining + one sfence (§5.3.1)",
                 bench::FmtNs(MmioSendCost(pcie::PteType::kWriteCombining).ToDouble())});
    send.Print();

    stats::PrintHeading("NIC->host decision read");
    stats::Table recv({"receive path", "cost"});
    recv.AddRow({"uncacheable reads (baseline)",
                 bench::FmtNs(MmioReceiveCost(false, false).ToDouble())});
    recv.AddRow({"write-through line fetch (§5.3.2)",
                 bench::FmtNs(MmioReceiveCost(true, false).ToDouble())});
    recv.AddRow({"write-through + prefetch (§5.4)",
                 bench::FmtNs(MmioReceiveCost(true, true).ToDouble())});
    recv.Print();

    stats::PrintHeading("DMA queue (per msg over 128 msgs)");
    stats::Table dma({"strategy", "cost"});
    dma.AddRow({"sync, single-message transfers",
                bench::FmtNs(DmaSendCost(1, true).ToDouble())});
    dma.AddRow({"async, single-message transfers",
                bench::FmtNs(DmaSendCost(1, false).ToDouble())});
    dma.AddRow({"sync, 64-message batches",
                bench::FmtNs(DmaSendCost(64, true).ToDouble())});
    dma.AddRow({"async, 64-message batches (Floem/iPipe)",
                bench::FmtNs(DmaSendCost(64, false).ToDouble())});
    dma.Print();

    stats::PrintHeading("NUMA placement (1 MiB DMA, §5.1)");
    {
        Simulator s;
        pcie::DmaEngine engine(s, pcie::PcieConfig{});
        const std::size_t mib = 1 << 20;
        const auto local_ns = engine.TransferTime(mib);
        engine.SetNumaLocal(false);
        const auto remote_ns = engine.TransferTime(mib);
        std::printf("recipient-local buffers: %s   remote-node: %s "
                    "(paper: 10-20%% throughput difference)\n",
                    bench::FmtNs(local_ns.ToDouble()).c_str(),
                    bench::FmtNs(remote_ns.ToDouble()).c_str());
    }
    std::printf("\n");
}

// --- BENCH_simcore.json: the machine-readable perf trajectory ---

/**
 * The bare event loop: one round schedules 1000 zero-work events over
 * 64 ns and runs them. A warmup round levels the event-queue capacity
 * and frame pool off, so the measured rounds run the loop exactly as a
 * long simulation would.
 */
class EventLoopRung {
  public:
    EventLoopRung() { RunRound(); }

    /** Events/s over @p rounds rounds. */
    double
    Rep(int rounds)
    {
        const std::uint64_t events_before = sim_.EventsExecuted();
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < rounds; ++r) {
            RunRound();
        }
        const auto t1 = std::chrono::steady_clock::now();
        // Reading every callback's effect keeps the timed work
        // observable.
        WAVE_ASSERT(sink_ == sim_.EventsExecuted(), "a callback did not run");
        const std::uint64_t events = sim_.EventsExecuted() - events_before;
        events_ += events;
        return static_cast<double>(events) /
               std::chrono::duration<double>(t1 - t0).count();
    }

    /** Events executed by all Rep() calls. */
    std::uint64_t Events() const { return events_; }

  private:
    void
    RunRound()
    {
        constexpr int kEventsPerRound = 1000;
        for (int i = 0; i < kEventsPerRound; ++i) {
            sim_.Schedule(static_cast<DurationNs>(i % 64),
                          [this] { ++sink_; });
        }
        sim_.Run();
    }

    Simulator sim_;
    std::uint64_t sink_ = 0;
    std::uint64_t events_ = 0;
};

/** One MMIO round trip's events/s and wall ns per simulated second. */
struct RoundTripRep {
    double events_per_sec;
    double wall_ns_per_sim_sec;
};

/**
 * @p rounds host->NIC round trips of one message, 1 µs apart: the
 * "how long does a simulated second take to compute" workload that
 * bounds every figure reproduction's runtime.
 */
RoundTripRep
RunRoundTrips(int rounds)
{
    Simulator sim;
    pcie::NicDram dram(sim, pcie::PcieConfig{}, 1 << 20);
    channel::MmioQueue queue(dram, 0,
                             QueueConfig{.capacity = 64,
                                         .payload_size = 48});
    channel::HostProducer producer(queue,
                                   pcie::PteType::kWriteCombining,
                                   pcie::PteType::kWriteThrough);
    channel::NicConsumer consumer(queue, pcie::PteType::kWriteBack);
    int received = 0;
    sim.Spawn([](Simulator& s, channel::HostProducer& p,
                 channel::NicConsumer& c, int n, int& got) -> Task<> {
        std::vector<Bytes> batch;
        batch.push_back(Msg(7));
        Bytes payload;
        for (int round = 0; round < n; ++round) {
            co_await p.Send(batch);
            co_await s.Delay(1'000);
            if (co_await c.PollInto(payload)) ++got;
        }
    }(sim, producer, consumer, rounds, received));

    const auto t0 = std::chrono::steady_clock::now();
    sim.Run();
    const auto t1 = std::chrono::steady_clock::now();
    WAVE_ASSERT(received == rounds, "a round trip lost its message");
    const double wall_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    return RoundTripRep{
        static_cast<double>(sim.EventsExecuted()) / (wall_ns / 1e9),
        wall_ns / (sim.Now().ns() / 1e9)};
}

/**
 * Wall-clock rates of the event loop and the MMIO round trip, and the
 * event loop's steady-state allocation rate.
 *
 * The two rungs alternate, rep by rep, and each reports its best rep:
 * the first reps also warm the CPU governor out of its low-frequency
 * state, and peak throughput is the stable estimator a regression gate
 * needs (the noise is all one-sided). Alternating puts both bests in the
 * same stretch of machine load, so their ratio, which tools/bench_gate.py
 * gates, cancels it. AllocGuard counts global operator new calls during
 * the event-loop reps only — the dynamic check behind W101's
 * "allocation-free steady state" claim.
 */
int
RunJsonMode(const bench::JsonCliArgs& args)
{
    const int reps = args.quick ? 5 : 3;
    const int loop_rounds = args.quick ? 200 : 1000;
    const int roundtrip_rounds = args.quick ? 5'000 : 20'000;

    EventLoopRung loop;
    std::uint64_t loop_allocs = 0;
    double loop_rate = 0.0;
    RoundTripRep roundtrip{0.0, 0.0};
    for (int rep = 0; rep < reps; ++rep) {
        const sim::AllocGuard guard;
        loop_rate = std::max(loop_rate, loop.Rep(loop_rounds));
        loop_allocs += guard.Allocations();
        const RoundTripRep r = RunRoundTrips(roundtrip_rounds);
        roundtrip.events_per_sec =
            std::max(roundtrip.events_per_sec, r.events_per_sec);
        roundtrip.wall_ns_per_sim_sec =
            rep == 0 ? r.wall_ns_per_sim_sec
                     : std::min(roundtrip.wall_ns_per_sim_sec,
                                r.wall_ns_per_sim_sec);
    }

    bench::BenchJson json("simcore");
    json.Add("events_per_sec", loop_rate, "1/s");
    json.Add("allocs_per_event",
             static_cast<double>(loop_allocs) /
                 static_cast<double>(loop.Events()),
             "1/event");
    json.Add("wall_ns_per_sim_sec", roundtrip.wall_ns_per_sim_sec,
             "ns/sim-s");
    json.Add("roundtrip_events_per_sec", roundtrip.events_per_sec, "1/s");
    json.Add("roundtrip_vs_event_loop_speedup",
             roundtrip.events_per_sec / loop_rate, "x");
    return json.WriteTo(args.json_path) ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto json_args = bench::JsonCliArgs::Parse(argc, argv);
    if (!json_args.json_path.empty()) {
        return RunJsonMode(json_args);
    }
    PrintDesignChoiceTables();
    return 0;
}
