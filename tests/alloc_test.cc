/**
 * @file
 * Steady-state zero-allocation assertions for the hot loops.
 *
 * These are the dynamic twin of wave_analyze's W101 rule: the static
 * checker proves hot code *looks* allocation-free, these tests prove
 * the loops *are*. Each test runs one warmup pass — growing every ring,
 * pool, and reused buffer to its steady-state capacity — then measures
 * an identical pass under sim::AllocGuard and asserts the global
 * operator new was never entered.
 *
 * This binary links wave_alloc_guard, which replaces the global
 * allocation functions with counting wrappers; production targets must
 * not.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "channel/dma_queue.h"
#include "channel/mmio_queue.h"
#include "check/coherence.h"
#include "check/hb.h"
#include "ghost/agent.h"
#include "ghost/transport.h"
#include "machine/cpu.h"
#include "machine/machine.h"
#include "offload/kernels.h"
#include "offload/packet.h"
#include "offload/pipeline.h"
#include "offload/stage.h"
#include "sched/fifo.h"
#include "sim/alloc_guard.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "stats/histogram.h"
#include "wave/runtime.h"

namespace wave {
namespace {

using channel::Bytes;
using channel::QueueConfig;
using sim::AllocGuard;
using sim::DurationNs;
using sim::Simulator;
using sim::Task;

Bytes
Msg(std::uint64_t v)
{
    Bytes b(48);
    std::memcpy(b.data(), &v, sizeof(v));
    return b;
}

// The zero-allocation assertions below are vacuous if the counting
// operator new somehow failed to replace the default one, so first
// prove the guard sees a deliberate allocation.
TEST(AllocGuard, CountsDeliberateAllocations)
{
    AllocGuard guard;
    auto owned = std::make_unique<std::uint64_t>(42);
    EXPECT_GE(guard.Allocations(), 1u);
    EXPECT_GE(guard.Bytes(), sizeof(std::uint64_t));
    owned.reset();
    EXPECT_GE(guard.Frees(), 1u);
}

TEST(AllocGuard, SimulatorEventLoopIsAllocationFreeInSteadyState)
{
    Simulator sim;
    std::uint64_t sink = 0;
    const auto run_round = [&] {
        for (int i = 0; i < 1000; ++i) {
            sim.Schedule(static_cast<DurationNs>(i % 64),
                         [&sink] { ++sink; });
        }
        sim.Run();
    };

    run_round();  // warmup: event queue reaches steady-state capacity

    AllocGuard guard;
    for (int round = 0; round < 10; ++round) {
        run_round();
    }
    EXPECT_EQ(guard.Allocations(), 0u)
        << "scheduling/running pooled events should reuse warm capacity";
    EXPECT_EQ(sink, 11'000u);
}

TEST(AllocGuard, TimingWheelStaysAllocationFreeAcrossAllTiers)
{
    // Exercises every tier of the wheel in the measured region: sub-page
    // delays (near wheel), multi-page delays (far ring), and delays
    // beyond the ~16.8 ms far horizon (overflow heap), plus keyed
    // events for the sorted-insert path. After warmup the node pool and
    // the overflow heap's reserved capacity must absorb all of it.
    Simulator sim;
    std::uint64_t sink = 0;
    const auto run_round = [&] {
        for (int i = 0; i < 500; ++i) {
            const DurationNs delay = i % 97 == 0 ? DurationNs{30'000'000}
                                     : i % 31 == 0
                                         ? DurationNs{200'000}
                                         : static_cast<DurationNs>(i % 64);
            if (i % 16 == 0) {
                sim.ScheduleKeyed(delay, static_cast<std::uint64_t>(i),
                                  [&sink] { ++sink; });
            } else {
                sim.Schedule(delay, [&sink] { ++sink; });
            }
        }
        sim.Run();
    };

    run_round();  // warmup: node pool covers the peak backlog

    AllocGuard guard;
    for (int round = 0; round < 10; ++round) {
        run_round();
    }
    EXPECT_EQ(guard.Allocations(), 0u)
        << "near/far/overflow wheel traffic should reuse pooled nodes";
    EXPECT_EQ(sink, 5'500u);
}

TEST(AllocGuard, DelayRoundTripsAreAllocationFreeInSteadyState)
{
    // A coroutine's Delay is the commonest event: schedule a resume,
    // pop it, resume the frame. Near-wheel, same-instant and far-ring
    // delays all recycle one pooled node and allocate nothing.
    constexpr int kWarmup = 256;
    constexpr int kMeasured = 4096;

    Simulator sim;
    std::uint64_t measured_allocs = ~0ull;
    int resumes = 0;
    sim.Spawn([](Simulator& s, int& n, std::uint64_t& allocs) -> Task<> {
        const auto delay = [](int i) {
            return i % 64 == 0 ? DurationNs{200'000}
                               : static_cast<DurationNs>(i % 8);
        };
        for (int i = 0; i < kWarmup; ++i) {
            co_await s.Delay(delay(i));
            ++n;
        }
        const AllocGuard guard;
        for (int i = 0; i < kMeasured; ++i) {
            co_await s.Delay(delay(i));
            ++n;
        }
        allocs = guard.Allocations();
    }(sim, resumes, measured_allocs));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "a Delay round trip should reuse a pooled event node";
    EXPECT_EQ(resumes, kWarmup + kMeasured);
}

TEST(AllocGuard, ChannelCoroutineLoopIsAllocationFreeInSteadyState)
{
    // The measured region lives inside one long-running producer /
    // consumer pair: that is the steady state the W101 annotations
    // claim is allocation-free. (Spawning fresh root processes is NOT
    // allocation-free per spawn — completed root frames recycle in
    // batches at the simulator's sweep interval.)
    constexpr int kWarmup = 256;
    constexpr int kMeasured = 1024;

    Simulator sim;
    sim::Channel<int> channel(sim);
    channel.Reserve(64);

    std::uint64_t received = 0;
    std::uint64_t measured_allocs = ~0ull;
    // Consumer first so Receive() parks a waiter in the signal ring.
    sim.Spawn([](sim::Channel<int>& ch, std::uint64_t& sum,
                 std::uint64_t& allocs) -> Task<> {
        for (int i = 0; i < kWarmup; ++i) {
            sum += static_cast<std::uint64_t>(co_await ch.Receive());
        }
        const AllocGuard guard;  // frame pool + rings now warm
        for (int i = 0; i < kMeasured; ++i) {
            sum += static_cast<std::uint64_t>(co_await ch.Receive());
        }
        allocs = guard.Allocations();
    }(channel, received, measured_allocs));
    sim.Spawn([](Simulator& s, sim::Channel<int>& ch) -> Task<> {
        for (int i = 0; i < kWarmup + kMeasured; ++i) {
            ch.Push(i);
            co_await s.Delay(10);
        }
    }(sim, channel));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "Push/Receive over a warm channel should recycle pooled "
           "frames and ring slots";
    const std::uint64_t n = kWarmup + kMeasured;
    EXPECT_EQ(received, n * (n - 1) / 2);
}

TEST(AllocGuard, DmaQueueSendPollLoopIsAllocationFreeInSteadyState)
{
    // Like the channel test, one long-running process measures its own
    // steady state. The Delay between Send and the polls lets the async
    // DMA land so every round exercises the poll-success path, and
    // sync_interval=16 forces the counter-sync DMA inside the measured
    // region too. Warmup must include successful polls: the reused
    // payload buffer and the counter-sync completion only warm up once
    // a poll has succeeded.
    constexpr int kWarmupRounds = 8;
    constexpr int kMeasuredRounds = 16;

    Simulator sim;
    pcie::DmaEngine dma(sim, pcie::PcieConfig{});
    channel::DmaQueue queue(sim, dma, pcie::DmaInitiator::kNic,
                            QueueConfig{.capacity = 256,
                                        .payload_size = 48,
                                        .sync_interval = 16});

    // Send copies out of the reused batch; PollInto resizes the reused
    // payload within retained capacity. Neither touches the heap warm.
    std::vector<Bytes> batch;
    for (std::uint64_t i = 0; i < 8; ++i) batch.push_back(Msg(i));

    std::uint64_t polled = 0;
    std::uint64_t measured_allocs = ~0ull;
    sim.Spawn([](Simulator& s, channel::DmaQueue& q,
                 std::vector<Bytes>& b, std::uint64_t& n,
                 std::uint64_t& allocs) -> Task<> {
        Bytes payload;
        for (int r = 0; r < kWarmupRounds; ++r) {
            co_await q.Send(b, /*sync=*/false);
            co_await s.Delay(50'000);  // async transfer lands
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (co_await q.PollInto(payload)) ++n;
            }
        }
        const AllocGuard guard;
        for (int r = 0; r < kMeasuredRounds; ++r) {
            co_await q.Send(b, /*sync=*/false);
            co_await s.Delay(50'000);
            for (std::size_t i = 0; i < b.size(); ++i) {
                if (co_await q.PollInto(payload)) ++n;
            }
        }
        allocs = guard.Allocations();
    }(sim, queue, batch, polled, measured_allocs));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "warm DmaQueue Send/PollInto cycles should be allocation-free";
    EXPECT_EQ(polled,
              static_cast<std::uint64_t>(kWarmupRounds + kMeasuredRounds) *
                  8);
}

/**
 * One round trip over a Wave deployment's MMIO queues: the host sends a
 * message, the NIC polls it and echoes it back on the decision queue,
 * and the host prefetches and polls the echo. Returns the echoed word.
 */
Task<std::uint64_t>
WaveRoundTrip(Simulator& sim, HostToNicChannel& to_nic,
              NicToHostChannel& to_host, const std::vector<Bytes>& batch,
              Bytes& nic_buf, Bytes& host_buf)
{
    co_await to_nic.host->Send(batch);
    while (!co_await to_nic.nic->PollInto(nic_buf)) {
        co_await sim.Delay(100);  // posted stores still in flight
    }
    co_await to_host.nic->Send(nic_buf);
    co_await to_host.host->PrefetchNext();
    while (!co_await to_host.host->PollInto(host_buf,
                                            /*flush_first=*/false)) {
        co_await to_host.host->PrefetchNext();
    }
    std::uint64_t echoed = 0;
    std::memcpy(&echoed, host_buf.data(), sizeof(echoed));
    co_return echoed;
}

TEST(AllocGuard, WaveQueueRoundTripsAreAllocationFreeWithCheckers)
{
    // The Wave path as a deployment builds it: a runtime (with the
    // coherence checker, protocol checker and HB detector attached when
    // they are compiled in) and one queue in each direction. Warmup
    // runs two full ring laps, so every slot's line, cache entry and
    // sync slot has been touched once; the measured round trips, which
    // include counter syncs, ring-full refreshes, clflushes and
    // prefetch fills, must then stay off the heap.
    constexpr std::size_t kCapacity = 64;
    constexpr int kWarmup = 2 * static_cast<int>(kCapacity);
    constexpr int kMeasured = 2048;

    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    const QueueConfig qc{
        .capacity = kCapacity, .payload_size = 48, .sync_interval = 8};
    HostToNicChannel to_nic = runtime.CreateHostToNicQueue(qc);
    NicToHostChannel to_host = runtime.CreateNicToHostQueue(qc);

    std::vector<Bytes> batch{Msg(0)};
    int mismatches = 0;
    std::uint64_t measured_allocs = ~0ull;
    sim.Spawn([](Simulator& s, HostToNicChannel& h2n, NicToHostChannel& n2h,
                 std::vector<Bytes>& b, int& bad,
                 std::uint64_t& allocs) -> Task<> {
        Bytes nic_buf;
        Bytes host_buf;
        for (std::uint64_t i = 0; i < kWarmup; ++i) {
            std::memcpy(b[0].data(), &i, sizeof(i));
            if (co_await WaveRoundTrip(s, h2n, n2h, b, nic_buf,
                                       host_buf) != i) {
                ++bad;
            }
        }
        const AllocGuard guard;
        for (std::uint64_t i = kWarmup; i < kWarmup + kMeasured; ++i) {
            std::memcpy(b[0].data(), &i, sizeof(i));
            if (co_await WaveRoundTrip(s, h2n, n2h, b, nic_buf,
                                       host_buf) != i) {
                ++bad;
            }
        }
        allocs = guard.Allocations();
    }(sim, to_nic, to_host, batch, mismatches, measured_allocs));
    sim.Run();

    EXPECT_EQ(measured_allocs, 0u)
        << "warm Send/PollInto/PrefetchNext round trips should reuse the "
           "checkers' shadow arrays, the WT line cache and pooled frames";
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(to_host.host->Consumed(),
              static_cast<std::uint64_t>(kWarmup + kMeasured));
    if (runtime.Hb() != nullptr) {
        for (const auto& race : runtime.Hb()->Races()) {
            ADD_FAILURE() << race.Describe();
        }
    }
    if (runtime.Checker() != nullptr) {
        for (const auto& violation : runtime.Checker()->Violations()) {
            ADD_FAILURE() << violation.Describe();
        }
    }
}

TEST(AllocGuard, IdleWaveAgentPassesAreAllocationFree)
{
    // A Wave agent with nothing to schedule spins through its loop
    // passes, polling the message queue and all 16 outcome queues each
    // time. After a warm-up millisecond those passes must stay off the
    // heap: the polls find every ring empty, so nothing is returned.
    constexpr int kCores = 16;

    Simulator sim;
    machine::Machine machine(sim);
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    ghost::WaveSchedTransport transport(runtime, kCores);
    ghost::AgentConfig config;
    for (int core = 0; core < kCores; ++core) config.cores.push_back(core);
    auto agent = std::make_shared<ghost::GhostAgent>(
        transport, std::make_shared<sched::FifoPolicy>(), config);
    runtime.StartWaveAgent(agent, 0);

    sim.RunFor(DurationNs{1'000'000});  // warm-up
    const std::uint64_t passes = agent->Stats().iterations;
    AllocGuard guard;
    sim.RunFor(DurationNs{1'000'000});
    const std::uint64_t measured_allocs = guard.Allocations();

    EXPECT_GT(agent->Stats().iterations - passes, 5'000u);
    EXPECT_EQ(measured_allocs, 0u)
        << "idle agent passes should reuse pooled frames and allocate "
           "nothing for empty polls";
}

offload::FiveTuple
FlowTupleFor(std::uint32_t flow)
{
    return offload::FiveTuple{
        .src_ip = 0x0a000000u | flow,
        .dst_ip = 0xc0a80001u,
        .src_port = static_cast<std::uint16_t>(1024 + flow),
        .dst_port = 80,
        .proto = 6};
}

TEST(AllocGuard, OffloadStageDispatchIsAllocationFreeInSteadyState)
{
    // StageChain construction allocates (ACL, automaton, sketches,
    // connection-table reserve); dispatch must not. The warmup pass
    // covers the full flow universe so the load balancer's connection
    // table takes every node insert before the guard goes up — the
    // measured passes are pure lookups plus the compute kernels over
    // the inline payload.
    constexpr std::uint32_t kFlows = 64;

    offload::StageChainConfig cfg;
    cfg.expected_flows = kFlows;
    offload::StageChain chain(cfg);

    auto packet = std::make_unique<offload::Packet>();
    const auto run_pass = [&] {
        for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
            offload::Packet& p = *packet;
            p.tuple = FlowTupleFor(flow);
            const std::size_t header = offload::RenderHttpGet(
                flow, p.payload.data(), offload::kMaxPayloadBytes);
            offload::FillRandomBytes(flow * 7919ull + 1,
                                     p.payload.data() + header, 512);
            p.payload_len = static_cast<std::uint32_t>(header + 512);
            p.acl_allowed = 1;
            p.http_ok = 0;
            p.backend = 0;
            p.scan_hits = 0;
            p.digest = 0;
            bool alive = true;
            chain.Process(p, &alive);
            EXPECT_TRUE(alive);
        }
    };

    run_pass();  // warmup: every flow inserted into the connection table

    AllocGuard guard;
    for (int r = 0; r < 8; ++r) {
        run_pass();
    }
    EXPECT_EQ(guard.Allocations(), 0u)
        << "full-chain dispatch over a warm connection table should "
           "never allocate";
    EXPECT_EQ(chain.ConnectionCount(), kFlows);
    EXPECT_EQ(chain.Stats(offload::StageKind::kFirewall).packets,
              9ull * kFlows);
}

TEST(AllocGuard, OffloadPipelineLoopIsAllocationFreeInSteadyState)
{
    // End-to-end: Inject materializes into the pooled packet slots and
    // the long-lived worker coroutines (spawned once by Start) pull,
    // Work, and Route. After one round the packet pool, segment rings,
    // Work-coroutine frame pool, and connection table are all warm;
    // further rounds — including the event loop driving them — must
    // stay off the heap.
    constexpr std::uint32_t kFlows = 64;
    constexpr int kMeasuredRounds = 6;

    Simulator sim;
    machine::ClockDomain nic(0.61);
    machine::Cpu cpu0(sim, "nic0", &nic);
    machine::Cpu cpu1(sim, "nic1", &nic);

    offload::PipelineConfig cfg;
    cfg.pool_size = 256;
    cfg.chain.expected_flows = kFlows;
    offload::OffloadPipeline pipeline(sim, cfg);
    pipeline.AddWorker(cpu0);
    pipeline.AddWorker(cpu1);
    pipeline.Start();

    const auto run_round = [&] {
        for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
            offload::PacketDesc d;
            d.tuple = FlowTupleFor(flow);
            d.payload_len = 600;
            d.payload_seed = flow * 6364136223846793005ull + 11;
            d.http = true;
            d.http_key = flow;
            EXPECT_TRUE(pipeline.Inject(d));
        }
        sim.RunFor(sim::DurationNs{2'000'000});  // drain the burst
    };

    run_round();  // warmup

    AllocGuard guard;
    for (int r = 0; r < kMeasuredRounds; ++r) {
        run_round();
    }
    const std::uint64_t measured_allocs = guard.Allocations();

    pipeline.RequestStop();
    sim.RunFor(sim::DurationNs{10'000});  // workers observe the stop

    EXPECT_EQ(measured_allocs, 0u)
        << "warm Inject/worker/Retire rounds should reuse pooled "
           "packets, ring slots, and coroutine frames";
    EXPECT_EQ(pipeline.Stats().completed,
              static_cast<std::uint64_t>(kFlows) * (1 + kMeasuredRounds));
    EXPECT_EQ(pipeline.Stats().dropped, 0u);
    EXPECT_EQ(pipeline.Pending(), 0u);
}

TEST(AllocGuard, HistogramRecordIsAllocationFreeInSteadyState)
{
    stats::Histogram histogram;
    std::uint64_t v = 1;
    const auto run_pass = [&](int n) {
        for (int i = 0; i < n; ++i) {
            histogram.Record(v);
            v = v * 2862933555777941757ull + 3037000493ull;
            v >>= (v & 15);
        }
    };

    run_pass(4096);  // warmup: bucket table fully materialized

    AllocGuard guard;
    run_pass(4096);
    EXPECT_EQ(guard.Allocations(), 0u)
        << "Record into a warm histogram should never allocate";
}

}  // namespace
}  // namespace wave
