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
 * time (the event loop and an MMIO round trip, each over a reference
 * queue timed in the same run), so regressions show up independently
 * of the modelled latencies (BENCH_simcore.json).
 */
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

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

/** Events in one timed slice of a rung: tens of µs of host time. */
constexpr int kEventsPerSlice = 1000;

/**
 * The reference both gated simcore ratios divide by: the event loop's
 * schedule through a 64-bucket calendar queue of std::vectors, popped
 * in time order. It shares no code with src/sim, so a change to the
 * event core moves the ratios rather than their reference. Machine load
 * slows it as it slows the event core; a std::priority_queue's
 * data-dependent branches did not track it (see docs/perf.md).
 */
class ReferenceQueueRung {
  public:
    ReferenceQueueRung()
    {
        for (auto& bucket : buckets_) bucket.reserve(kEventsPerSlice);
    }

    /** Pushes one slice of events and pops them; returns the count. */
    std::uint64_t
    Slice()
    {
        // Every event lands within 64 ns of now_, so one revolution of
        // the buckets, lowest set bit first, is time order.
        for (int i = 0; i < kEventsPerSlice; ++i) {
            const std::uint64_t when =
                now_ + static_cast<std::uint64_t>(i % 64);
            buckets_[when % 64].emplace_back(when, seq_++);
            pending_ |= 1ULL << (when % 64);
        }
        std::uint64_t popped = 0;
        while (pending_ != 0) {
            auto& bucket = buckets_[std::countr_zero(pending_)];
            for (const auto& [when, seq] : bucket) {
                ordered_ = ordered_ && when >= last_;
                last_ = when;
                ++popped;
            }
            bucket.clear();
            pending_ &= pending_ - 1;
        }
        now_ += 64;
        return popped;
    }

    /** Whether every pop came out in time order. */
    bool Ordered() const { return ordered_; }

  private:
    using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, seq)
    std::array<std::vector<Event>, 64> buckets_;
    std::uint64_t pending_ = 0;  ///< bit b: bucket b is non-empty
    std::uint64_t now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t last_ = 0;
    bool ordered_ = true;
};

/** The bare event loop: a slice schedules zero-work events over 64 ns. */
class EventLoopRung {
  public:
    /** Schedules one slice of events and runs them; returns the count. */
    std::uint64_t
    Slice()
    {
        const std::uint64_t before = sim_.EventsExecuted();
        for (int i = 0; i < kEventsPerSlice; ++i) {
            sim_.Schedule(static_cast<DurationNs>(i % 64),
                          [this] { ++sink_; });
        }
        sim_.Run();
        return sim_.EventsExecuted() - before;
    }

    /** Whether every callback ran; reading them keeps the work live. */
    bool AllRan() const { return sink_ == sim_.EventsExecuted(); }

    /** Events executed so far, untimed slices included. */
    std::uint64_t Events() const { return sim_.EventsExecuted(); }

  private:
    Simulator sim_;
    std::uint64_t sink_ = 0;
};

/**
 * Host->NIC round trips of one message, 1 µs apart: the "how long does
 * a simulated second take to compute" workload that bounds every figure
 * reproduction's runtime. A slice runs the simulated window that holds
 * about kEventsPerSlice of its events.
 */
class RoundTripRung {
  public:
    /** Simulated time one slice covers. */
    static constexpr DurationNs kSliceNs = 100'000;

    RoundTripRung()
        : dram_(sim_, pcie::PcieConfig{}, 1 << 20),
          queue_(dram_, 0, QueueConfig{.capacity = 64, .payload_size = 48}),
          producer_(queue_, pcie::PteType::kWriteCombining,
                    pcie::PteType::kWriteThrough),
          consumer_(queue_, pcie::PteType::kWriteBack)
    {
        sim_.Spawn(RoundTrips(sim_, producer_, consumer_, lost_));
    }

    /** Runs one slice; returns the events it executed. */
    std::uint64_t
    Slice()
    {
        const std::uint64_t before = sim_.EventsExecuted();
        sim_.RunFor(kSliceNs);
        return sim_.EventsExecuted() - before;
    }

    /** Whether every poll found its message. */
    bool LostNone() const { return lost_ == 0; }

    /** Events executed so far, untimed slices included. */
    std::uint64_t Events() const { return sim_.EventsExecuted(); }

  private:
    static Task<>
    RoundTrips(Simulator& s, channel::HostProducer& p,
               channel::NicConsumer& c, int& lost)
    {
        std::vector<Bytes> batch;
        batch.push_back(Msg(7));
        Bytes payload;
        for (;;) {
            co_await p.Send(batch);
            co_await s.Delay(1'000);
            if (!co_await c.PollInto(payload)) ++lost;
        }
    }

    Simulator sim_;
    pcie::NicDram dram_;
    channel::MmioQueue queue_;
    channel::HostProducer producer_;
    channel::NicConsumer consumer_;
    int lost_ = 0;
};

/** Times one slice of @p rung; returns its events/s. */
template <typename Rung>
double
SliceRate(Rung& rung)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t events = rung.Slice();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(events) /
           std::chrono::duration<double>(t1 - t0).count();
}

/** The median of @p samples (the upper one for an even count). */
double
Median(std::vector<double> samples)
{
    const auto mid = samples.begin() + static_cast<long>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    return *mid;
}

/**
 * Wall-clock rates of the reference queue, the event loop and the MMIO
 * round trip, and the event loop's steady-state allocation rate.
 *
 * The three rungs take turns, one short slice each, and each reports its
 * median slice rate. A change in machine load lasts longer than a turn,
 * so every rung sees the same mix of it, and the ratios to the
 * reference, which tools/bench_gate.py gates, cancel it; the median
 * drops slices that a preemption hit. The round trip's ratio to the
 * event loop is reported too, ungated: a per-event saving speeds up its
 * reference more than the round trip. AllocGuard counts global operator
 * new calls during the event-loop slices only — the dynamic check
 * behind W101's "allocation-free steady state" claim.
 */
int
RunJsonMode(const bench::JsonCliArgs& args)
{
    const std::size_t slices = args.quick ? 400 : 2000;

    ReferenceQueueRung ref;
    EventLoopRung loop;
    RoundTripRung roundtrip;
    // An untimed slice each levels queue capacities and the frame pool
    // off, so the timed ones run as a long simulation would.
    ref.Slice();
    loop.Slice();
    roundtrip.Slice();
    const std::uint64_t loop_events_before = loop.Events();
    const std::uint64_t roundtrip_events_before = roundtrip.Events();

    std::vector<double> ref_rates;
    std::vector<double> loop_rates;
    std::vector<double> roundtrip_rates;
    ref_rates.reserve(slices);
    loop_rates.reserve(slices);
    roundtrip_rates.reserve(slices);
    std::uint64_t loop_allocs = 0;
    for (std::size_t i = 0; i < slices; ++i) {
        ref_rates.push_back(SliceRate(ref));
        {
            const sim::AllocGuard guard;
            loop_rates.push_back(SliceRate(loop));
            loop_allocs += guard.Allocations();
        }
        roundtrip_rates.push_back(SliceRate(roundtrip));
    }
    WAVE_ASSERT(ref.Ordered(), "the reference queue popped out of order");
    WAVE_ASSERT(loop.AllRan(), "a callback did not run");
    WAVE_ASSERT(roundtrip.LostNone(), "a round trip lost its message");

    const double ref_rate = Median(ref_rates);
    const double loop_rate = Median(loop_rates);
    const double roundtrip_rate = Median(roundtrip_rates);
    const double roundtrip_events_per_slice =
        static_cast<double>(roundtrip.Events() - roundtrip_events_before) /
        static_cast<double>(slices);
    const double slice_sim_s = sim::ToSec(RoundTripRung::kSliceNs);

    bench::BenchJson json("simcore");
    json.Add("events_per_sec", loop_rate, "1/s");
    json.Add("allocs_per_event",
             static_cast<double>(loop_allocs) /
                 static_cast<double>(loop.Events() - loop_events_before),
             "1/event");
    json.Add("wall_ns_per_sim_sec",
             roundtrip_events_per_slice / roundtrip_rate * 1e9 / slice_sim_s,
             "ns/sim-s");
    json.Add("roundtrip_events_per_sec", roundtrip_rate, "1/s");
    json.Add("ref_events_per_sec", ref_rate, "1/s");
    json.Add("event_loop_vs_ref_speedup", loop_rate / ref_rate, "x");
    json.Add("roundtrip_vs_ref_speedup", roundtrip_rate / ref_rate, "x");
    json.Add("roundtrip_vs_event_loop_speedup", roundtrip_rate / loop_rate,
             "x");
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
