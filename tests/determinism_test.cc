/**
 * @file
 * Determinism and reproducibility properties of the whole stack.
 *
 * The simulator guarantees FIFO ordering at equal timestamps and all
 * randomness flows through seeded RNGs, so an experiment run twice
 * with the same configuration must produce bit-identical results —
 * the property that makes every number in EXPERIMENTS.md reproducible
 * and every bug report replayable.
 *
 * Beyond result equality, the simulator's event-stream fingerprint
 * (Simulator::EventHash, folded over every executed event) must also
 * match across runs — a far stricter check that catches schedules that
 * happen to produce the same aggregate numbers by luck — and must be
 * insensitive to the insertion order of keyed same-timestamp events.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "fuzz/runner.h"
#include "fuzz/scenario.h"
#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "machine/turbo.h"
#include "memmgr/address_space.h"
#include "offload/sweep.h"
#include "pcie/msix.h"
#include "rpc/rpc_experiment.h"
#include "sched/vm_policy.h"
#include "sim/inject.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sol/agent.h"
#include "wave/runtime.h"
#include "workload/busy_loop.h"
#include "workload/sched_experiment.h"

namespace wave {
namespace {

TEST(Determinism, SchedExperimentIsBitReproducible)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.worker_cores = 8;
    cfg.num_workers = 32;
    cfg.offered_rps = 400'000;
    cfg.warmup_ns = 10'000'000;
    cfg.measure_ns = 50'000'000;
    cfg.seed = 777;

    const auto a = workload::RunSchedExperiment(cfg);
    const auto b = workload::RunSchedExperiment(cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.get_p50, b.get_p50);
    EXPECT_EQ(a.get_p99, b.get_p99);
    EXPECT_EQ(a.ctx_switch_p50, b.ctx_switch_p50);
    EXPECT_EQ(a.agent_decisions, b.agent_decisions);
    EXPECT_EQ(a.prestage_hits, b.prestage_hits);
    EXPECT_EQ(a.commits_failed, b.commits_failed);
}

TEST(Determinism, DifferentSeedsProduceDifferentTraces)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.worker_cores = 8;
    cfg.num_workers = 32;
    cfg.offered_rps = 400'000;
    cfg.warmup_ns = 10'000'000;
    cfg.measure_ns = 50'000'000;

    cfg.seed = 1;
    const auto a = workload::RunSchedExperiment(cfg);
    cfg.seed = 2;
    const auto b = workload::RunSchedExperiment(cfg);
    // Same distribution, different arrivals: counts differ slightly.
    EXPECT_NE(a.completed, b.completed);
    EXPECT_NEAR(static_cast<double>(a.completed),
                static_cast<double>(b.completed),
                0.05 * static_cast<double>(a.completed));
}

TEST(Determinism, EventHashMatchesAcrossIdenticalRuns)
{
    auto run = [] {
        sim::Simulator sim;
        std::uint64_t ticks = 0;
        // A self-rescheduling process plus a burst of one-shot events:
        // enough queue churn that an ordering regression would perturb
        // the executed stream, not just the final counters.
        std::function<void()> tick = [&] {
            if (++ticks < 200) sim.Schedule(17, tick);
        };
        sim.Schedule(0, tick);
        for (std::uint64_t i = 0; i < 100; ++i) {
            sim.Schedule(i * 13 % 97, [] {});
        }
        sim.Run();
        return sim.EventHash();
    };

    const std::uint64_t a = run();
    const std::uint64_t b = run();
    EXPECT_EQ(a, b);
}

TEST(Determinism, EventHashInsensitiveToShuffledKeyedTieInsertion)
{
    // Components whose schedule-call order is itself nondeterministic
    // (e.g. iterating an unordered registry) must schedule with explicit
    // tie-break keys. The fingerprint then folds the key instead of the
    // insertion sequence number, so any insertion order of the same
    // keyed same-timestamp event set yields the same executed stream.
    auto run = [](std::vector<std::uint64_t> insertion_order) {
        sim::Simulator sim;
        std::vector<std::uint64_t> executed;
        for (std::uint64_t key : insertion_order) {
            // Three colliding timestamps, eight keyed events each.
            sim.ScheduleAtKeyed(sim::TimeNs{100 * (1 + key % 3)}, key,
                                [&executed, key] {
                                    executed.push_back(key);
                                });
        }
        sim.Run();
        return std::pair{sim.EventHash(), executed};
    };

    std::vector<std::uint64_t> order(24);
    for (std::uint64_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto a = run(order);

    std::reverse(order.begin(), order.end());
    const auto b = run(order);

    // Interleave: odd keys first, then even.
    std::vector<std::uint64_t> interleaved;
    for (std::uint64_t i = 1; i < 24; i += 2) interleaved.push_back(i);
    for (std::uint64_t i = 0; i < 24; i += 2) interleaved.push_back(i);
    const auto c = run(interleaved);

    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.first, c.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_EQ(a.second, c.second);
}

TEST(Determinism, UnkeyedEventsKeepFifoOrderAndDistinctHashes)
{
    // Unkeyed same-timestamp events execute in insertion (FIFO) order —
    // the legacy guarantee — so shuffling THEIR insertion changes the
    // executed stream, and the fingerprint honestly says so.
    auto run = [](bool swapped) {
        sim::Simulator sim;
        std::vector<int> executed;
        if (swapped) {
            sim.ScheduleAt(sim::TimeNs{50}, [&executed] { executed.push_back(2); });
            sim.ScheduleAt(sim::TimeNs{50}, [&executed] { executed.push_back(1); });
        } else {
            sim.ScheduleAt(sim::TimeNs{50}, [&executed] { executed.push_back(1); });
            sim.ScheduleAt(sim::TimeNs{50}, [&executed] { executed.push_back(2); });
        }
        sim.Run();
        return std::pair{sim.EventHash(), executed};
    };

    const auto a = run(false);
    const auto b = run(true);
    EXPECT_EQ(a.second, (std::vector<int>{1, 2}));
    EXPECT_EQ(b.second, (std::vector<int>{2, 1}));
    // Same (when, seq) stream either way, so the coarse fingerprint
    // matches; the tie AUDIT is what flags this pattern for review.
    EXPECT_EQ(a.first, b.first);
}

TEST(Determinism, SchedExperimentEventHashIsBitReproducible)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.worker_cores = 4;
    cfg.num_workers = 16;
    cfg.offered_rps = 200'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.seed = 4242;

    const auto a = workload::RunSchedExperiment(cfg);
    const auto b = workload::RunSchedExperiment(cfg);
    EXPECT_EQ(a.event_hash, b.event_hash)
        << "executed event streams diverged between identical runs";
    EXPECT_NE(a.event_hash, 0u);
}

TEST(Determinism, StreamSeedsAreStableAndIndependent)
{
    // Named streams: same (base, name) must reproduce, any change to
    // either must land elsewhere. The fuzz rig leans on this so the
    // fault stream can grow or shrink without disturbing the workload
    // stream of the same base seed.
    EXPECT_EQ(sim::StreamSeed(42, "workload"),
              sim::StreamSeed(42, "workload"));
    EXPECT_NE(sim::StreamSeed(42, "workload"),
              sim::StreamSeed(42, "fault"));
    EXPECT_NE(sim::StreamSeed(42, "workload"),
              sim::StreamSeed(42, "scenario"));
    EXPECT_NE(sim::StreamSeed(42, "workload"),
              sim::StreamSeed(43, "workload"));
    EXPECT_NE(sim::StreamSeed(42, "fault"), 0u);

    // Streams must not be trivially correlated: drawing from two
    // sibling streams yields different sequences.
    sim::Rng a(sim::StreamSeed(7, "workload"));
    sim::Rng b(sim::StreamSeed(7, "fault"));
    int differing = 0;
    for (int i = 0; i < 16; ++i) {
        if (a.Next() != b.Next()) ++differing;
    }
    EXPECT_GE(differing, 15);
}

namespace {

/**
 * Drives a burst of MSI-X traffic over a freshly-built Wave fabric and
 * returns the executed-event fingerprint. @p injector_mode: 0 = no
 * injector attached, 1 = injector attached and armed with an empty
 * schedule, 2 = armed with an active MSI-X delay window.
 */
std::uint64_t
FabricFingerprint(int injector_mode)
{
    sim::Simulator sim;
    machine::Machine machine(sim, machine::MachineConfig{});
    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    sim::inject::FaultInjector injector(sim);
    if (injector_mode > 0) runtime.AttachInjector(&injector);

    auto vec = runtime.CreateMsiXVector();
    if (injector_mode == 1) {
        injector.Arm({});
    } else if (injector_mode == 2) {
        injector.Arm({{sim::inject::FaultKind::kMsixDelay, /*at=*/sim::TimeNs{0},
                       /*duration=*/1'000'000, /*param=*/5'000}});
    }

    sim.Spawn([](sim::Simulator& s, pcie::MsiXVector& v) -> sim::Task<> {
        for (int i = 0; i < 6; ++i) {
            co_await s.Delay(2'000);
            co_await v.Send();
        }
    }(sim, *vec));
    sim.Spawn([](pcie::MsiXVector& v) -> sim::Task<> {
        for (int i = 0; i < 6; ++i) {
            co_await v.WaitAndReceive();
        }
    }(*vec));
    sim.Run();
    return sim.EventHash();
}

}  // namespace

TEST(Determinism, ArmedEmptyInjectorKeepsFingerprintBitIdentical)
{
    // The injection layer must be invisible until a fault actually
    // fires: window queries draw no randomness and schedule no events,
    // so attach + Arm({}) cannot perturb the executed stream.
    const std::uint64_t without = FabricFingerprint(0);
    const std::uint64_t armed_empty = FabricFingerprint(1);
    const std::uint64_t with_fault = FabricFingerprint(2);
    EXPECT_EQ(without, armed_empty)
        << "an armed-but-empty injector changed the event stream";
    EXPECT_NE(without, with_fault)
        << "an active MSI-X delay window left the event stream untouched";
}

TEST(Determinism, RpcExperimentIsBitReproducible)
{
    rpc::RpcExperimentConfig cfg;
    cfg.scenario = rpc::RpcScenario::kOffloadAll;
    cfg.rocksdb_cores = 8;
    cfg.num_workers = 32;
    cfg.offered_rps = 60'000;
    cfg.warmup_ns = 10'000'000;
    cfg.measure_ns = 60'000'000;
    cfg.seed = 99;

    const auto a = rpc::RunRpcExperiment(cfg);
    const auto b = rpc::RunRpcExperiment(cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.get_p99, b.get_p99);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.steered, b.steered);
    EXPECT_EQ(a.event_hash, b.event_hash);
}

// --- Parallel saturation searches ---
//
// The searches run independent load points on parallel threads (one
// wave of up to hardware_concurrency() points at a time). Their answers
// and every visited point's fingerprint must be those of the serial
// walk below, run one point after another on this thread.

TEST(Determinism, ParallelSaturationSearchMatchesSerialWalk)
{
    // Fig 4a Wave-16 with short windows: 0.9M-1.2M pass, 1.3M is the
    // knee, so the walk stops mid-ladder.
    workload::SchedExperimentConfig base;
    base.deployment = workload::Deployment::kWave;
    base.policy = workload::PolicyKind::kFifo;
    base.worker_cores = 16;
    base.num_workers = 64;
    base.prestage_min_depth = 4;
    base.warmup_ns = 2'000'000;
    base.measure_ns = 6'000'000;
    base.seed = 42;

    double serial = 0;
    std::vector<std::uint64_t> serial_hashes;
    for (double rps = 900'000; rps <= 1'500'000 + 1; rps += 100'000) {
        workload::SchedExperimentConfig cfg = base;
        cfg.offered_rps = rps;
        const auto r = workload::RunSchedExperiment(cfg);
        serial_hashes.push_back(r.event_hash);
        if (r.achieved_rps >= 0.97 * rps) {
            serial = std::max(serial, r.achieved_rps);
        } else if (serial > 0) {
            break;
        }
    }
    ASSERT_EQ(serial_hashes.size(), 5u);

    std::vector<workload::LadderPoint> visited;
    EXPECT_EQ(workload::FindSaturationThroughput(base, 900'000, 1'500'000,
                                                 100'000, 0.97, &visited),
              serial);
    ASSERT_EQ(visited.size(), serial_hashes.size());
    for (std::size_t i = 0; i < visited.size(); ++i) {
        EXPECT_EQ(visited[i].event_hash, serial_hashes[i])
            << visited[i].offered_rps;
    }
}

TEST(Determinism, ParallelRpcSaturationSearchMatchesSerialWalk)
{
    // Offload-All, multi-queue: 100k misses the efficiency bound before
    // anything has passed (the walk climbs on), and 300k keeps up but
    // breaks the 500 us GET p99 SLO, which ends the walk.
    rpc::RpcExperimentConfig base;
    base.scenario = rpc::RpcScenario::kOffloadAll;
    base.multi_queue = true;
    base.rocksdb_cores = 4;
    base.rpc_cores = 2;
    base.num_workers = 16;
    base.warmup_ns = 2'000'000;
    base.measure_ns = 8'000'000;
    base.seed = 99;
    constexpr sim::DurationNs kSlo = 500'000;

    double serial = 0;
    std::vector<std::uint64_t> serial_hashes;
    for (double rps = 100'000; rps <= 400'000 + 1; rps += 50'000) {
        rpc::RpcExperimentConfig cfg = base;
        cfg.offered_rps = rps;
        const auto r = rpc::RunRpcExperiment(cfg);
        serial_hashes.push_back(r.event_hash);
        if (r.achieved_rps >= 0.97 * rps && r.get_p99 <= kSlo) {
            serial = std::max(serial, r.achieved_rps);
        } else if (serial > 0) {
            break;
        }
    }
    ASSERT_EQ(serial_hashes.size(), 5u);

    std::vector<workload::LadderPoint> visited;
    EXPECT_EQ(rpc::FindRpcSaturation(base, 100'000, 400'000, 50'000, kSlo,
                                     0.97, &visited),
              serial);
    ASSERT_EQ(visited.size(), serial_hashes.size());
    EXPECT_FALSE(visited.front().passed);
    for (std::size_t i = 0; i < visited.size(); ++i) {
        EXPECT_EQ(visited[i].event_hash, serial_hashes[i])
            << visited[i].offered_rps;
    }
}

// --- Golden fingerprints: cross-implementation equivalence oracles ---
//
// The tests above prove run-to-run reproducibility, which a rewritten
// event queue could satisfy while still reordering events relative to
// the old implementation. These goldens pin the *absolute* EventHash of
// one fixed-seed configuration per figure-bench family, captured under
// the original std::priority_queue implementation. Any event-queue
// replacement (the timing wheel) must reproduce every value bit-for-bit
// — total (when, key, seq) order equivalence, not just self-consistency.
// A mismatch means the executed event stream changed; do NOT update a
// golden without understanding exactly which schedule moved and why.

namespace {

/** Fig 4a family: FIFO scheduling experiment, Wave deployment. */
std::uint64_t
GoldenFig4aFifo()
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.policy = workload::PolicyKind::kFifo;
    cfg.worker_cores = 4;
    cfg.num_workers = 16;
    cfg.offered_rps = 200'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.seed = 4242;
    return workload::RunSchedExperiment(cfg).event_hash;
}

/** Fig 4b family: Shinjuku preemptive scheduling, Wave deployment. */
std::uint64_t
GoldenFig4bShinjuku()
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = workload::Deployment::kWave;
    cfg.policy = workload::PolicyKind::kShinjuku;
    cfg.worker_cores = 4;
    cfg.num_workers = 16;
    cfg.offered_rps = 150'000;
    cfg.get_fraction = 0.995;
    cfg.slice_ns = 30'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.seed = 7;
    return workload::RunSchedExperiment(cfg).event_hash;
}

/** Fig 5 family: VM turbo fixture — ghOSt kernel, VM policy, ticks. */
std::uint64_t
GoldenFig5VmTurbo(bool ticks)
{
    constexpr int kCores = 8;
    sim::Simulator sim;
    machine::MachineConfig mc;
    mc.host_cores = kCores + 1;
    machine::Machine machine(sim, mc);

    machine::TurboModel turbo;
    const machine::FreqGhz freq =
        turbo.Frequency(3, /*idle_cores_deep=*/!ticks);
    machine.HostDomain().SetSpeed(freq.RatioTo(machine::kReferenceFreq));

    WaveRuntime runtime(sim, machine, pcie::PcieConfig{},
                        api::OptimizationConfig::Full());
    std::unique_ptr<ghost::SchedTransport> transport;
    if (ticks) {
        transport = std::make_unique<ghost::ShmSchedTransport>(sim, kCores);
    } else {
        transport =
            std::make_unique<ghost::WaveSchedTransport>(runtime, kCores);
    }
    ghost::GhostCosts costs;
    ghost::KernelOptions options;
    options.timer_ticks = ticks;
    ghost::KernelSched kernel(sim, machine, *transport, costs, options);

    auto policy = std::make_shared<sched::VmPolicy>();
    ghost::AgentConfig agent_cfg;
    std::vector<int> cores;
    for (int c = 0; c < kCores; ++c) cores.push_back(c);
    agent_cfg.cores = cores;
    agent_cfg.prestage = false;
    auto agent = std::make_shared<ghost::GhostAgent>(*transport, policy,
                                                     agent_cfg);
    std::unique_ptr<AgentContext> host_ctx;
    if (ticks) {
        host_ctx = std::make_unique<AgentContext>(
            sim, machine.HostCpu(kCores));
        sim.Spawn(agent->Run(*host_ctx));
    } else {
        runtime.StartWaveAgent(agent, 0);
    }

    for (int c = 0; c < kCores; ++c) {
        const ghost::Tid tid_a = 1000 + c;
        const ghost::Tid tid_b = 2000 + c;
        policy->PinVcpu(tid_a, c);
        policy->PinVcpu(tid_b, c);
        if (c < 3) {
            kernel.AddThread(tid_a,
                             std::make_shared<workload::BusyLoopBody>());
            kernel.AddThread(tid_b,
                             std::make_shared<workload::IdleVcpuBody>());
        } else {
            kernel.AddThread(tid_a,
                             std::make_shared<workload::IdleVcpuBody>());
            kernel.AddThread(tid_b,
                             std::make_shared<workload::IdleVcpuBody>());
        }
    }
    kernel.Start(cores);

    sim.RunFor(2'000'000);
    sim.RunFor(5'000'000);
    return sim.EventHash();
}

/** Fig 6 family: RPC steering experiment (6a single / 6b multi queue). */
std::uint64_t
GoldenFig6Rpc(bool multi_queue)
{
    rpc::RpcExperimentConfig cfg;
    cfg.scenario = rpc::RpcScenario::kOffloadAll;
    cfg.multi_queue = multi_queue;
    cfg.rocksdb_cores = 4;
    cfg.rpc_cores = 2;
    cfg.num_workers = 16;
    cfg.offered_rps = 30'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.seed = 99;
    return rpc::RunRpcExperiment(cfg).event_hash;
}

/** §7.4.2 SOL family: offloaded memory-management agent iteration. */
std::uint64_t
GoldenSolIteration()
{
    sim::Simulator sim;
    machine::Machine machine(sim);
    memmgr::AddressSpace space(409'600);  // scaled-down page count

    sol::SolDeployment deployment;
    for (int i = 0; i < 2; ++i) {
        deployment.cpus.push_back(&machine.NicCpu(i));
    }
    pcie::DmaEngine dma(sim, pcie::PcieConfig{});
    deployment.dma = &dma;
    sol::SolAgent agent(sim, space, deployment);

    sim::DurationNs duration{};
    sim.Spawn([](sol::SolAgent& a, sim::DurationNs& out) -> sim::Task<> {
        out = co_await a.RunIteration();
    }(agent, duration));
    sim.Run();
    return sim.EventHash();
}

}  // namespace

TEST(GoldenFingerprint, Fig4aFifoFamily)
{
    EXPECT_EQ(GoldenFig4aFifo(), 0xf2210550fc6e368eULL);
}

TEST(GoldenFingerprint, Fig4bShinjukuFamily)
{
    EXPECT_EQ(GoldenFig4bShinjuku(), 0xac57e5e518628b07ULL);
}

TEST(GoldenFingerprint, Fig5VmTurboFamily)
{
    EXPECT_EQ(GoldenFig5VmTurbo(/*ticks=*/true), 0xf3f62f945b38d180ULL);
    EXPECT_EQ(GoldenFig5VmTurbo(/*ticks=*/false), 0xba8ad770e039911fULL);
}

TEST(GoldenFingerprint, Fig6aRpcFamily)
{
    EXPECT_EQ(GoldenFig6Rpc(/*multi_queue=*/false), 0xbd28356f23991040ULL);
}

TEST(GoldenFingerprint, Fig6bRpcSloFamily)
{
    EXPECT_EQ(GoldenFig6Rpc(/*multi_queue=*/true), 0x8458b53b95295f5eULL);
}

TEST(GoldenFingerprint, SolMemoryManagementFamily)
{
    EXPECT_EQ(GoldenSolIteration(), 0x08d1f7ffe1ccd4b5ULL);
}

namespace {

/**
 * Offload contention-sweep family: the full deployment (host KV workers,
 * Wave agent on NIC core 0 with a co-located datapath slice, dedicated
 * stage workers on the other NIC cores, open-loop packet generator).
 */
offload::OffloadSweepConfig
OffloadSweepFixture(double core_share, offload::Placement placement)
{
    offload::OffloadSweepConfig cfg;
    cfg.worker_cores = 4;
    cfg.num_workers = 16;
    cfg.nic_cores = 4;
    cfg.core_share = core_share;
    cfg.full_rate_pps = 400'000;
    cfg.placement = placement;
    cfg.flows = 64;
    cfg.offered_rps = 100'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.drain_ns = 2'000'000;
    cfg.seed = 4242;
    return cfg;
}

}  // namespace

TEST(Determinism, OffloadSweepIsBitReproducible)
{
    const auto cfg =
        OffloadSweepFixture(0.5, offload::Placement::kRunToCompletion);
    const auto a = offload::RunOffloadSweep(cfg);
    const auto b = offload::RunOffloadSweep(cfg);
    EXPECT_EQ(a.event_hash, b.event_hash);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.packets_completed, b.packets_completed);
    EXPECT_EQ(a.agent_iter_p99, b.agent_iter_p99);
    EXPECT_EQ(a.get_p99, b.get_p99);
    EXPECT_NE(a.event_hash, 0u);
    // The datapath actually ran and the agent kept iterating under it.
    EXPECT_GT(a.packets_completed, 0u);
    EXPECT_GT(a.agent_iterations, 0u);
}

TEST(GoldenFingerprint, OffloadSweepRunToCompletion)
{
    const auto r = offload::RunOffloadSweep(
        OffloadSweepFixture(0.5, offload::Placement::kRunToCompletion));
    EXPECT_EQ(r.event_hash, 0xefa3ab517fddc656ULL);
}

TEST(GoldenFingerprint, OffloadSweepPipelined)
{
    const auto r = offload::RunOffloadSweep(
        OffloadSweepFixture(0.75, offload::Placement::kPipelined));
    EXPECT_EQ(r.event_hash, 0x0e49379bad42fcf0ULL);
}

TEST(GoldenFingerprint, FuzzCorpusSeeds)
{
    // Four seeded fault-injection scenarios: the corpus exercises agent
    // stalls, MSI-X drops, DMA delays, and commit-fail bursts across
    // the whole fabric, so queue-order equivalence here covers paths no
    // single figure bench reaches.
    constexpr std::uint64_t kGolden[] = {0xdb362ab85c450f81ULL, 0xc09fbff0fc0e5ef8ULL,
                                     0x95d28d5aa82152ceULL, 0x98bddef9581a478aULL};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const fuzz::Scenario s = fuzz::GenerateScenario(seed);
        const fuzz::RunResult r = fuzz::RunScenario(s);
        EXPECT_EQ(r.event_hash, kGolden[seed - 1]) << "seed " << seed;
    }
}

}  // namespace
}  // namespace wave
