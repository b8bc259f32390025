// wave-domain: host
#include "offload/sweep.h"

#include <memory>

#include "sim/random.h"
#include "workload/testbed.h"

namespace wave::offload {

namespace {

/**
 * Max packets the agent's co-located slice processes per agent
 * iteration (the agent-priority bound: stage work can never hold the
 * agent core longer than this per pass).
 */
constexpr std::size_t kColoBatch = 4;

/**
 * Skip the co-located slice entirely while the scheduling run queue is
 * at least this deep: scheduling work preempts stage work when the
 * agent is behind.
 */
constexpr std::size_t kColoSkipDepth = 16;

/** The multi-queue Shinjuku preemption slice. */
constexpr sim::DurationNs kSliceNs = 30'000;

}  // namespace

std::function<sim::Task<>(AgentContext&)>
ColocatedAuxStage(OffloadPipeline& pipeline, const ghost::SchedPolicy& policy)
{
    // Not itself a coroutine: it reads its captures once, to build the
    // slice's task — the pattern W202 leaves open (as SteeringAuxStage).
    return [&pipeline, &policy](AgentContext& ctx) {
        const std::size_t budget =
            policy.RunQueueDepth() >= kColoSkipDepth ? 0 : kColoBatch;
        return budget == 0 || !pipeline.ColocatedWorkPending()
                   ? sim::Task<>{}
                   : pipeline.RunColocatedSlice(ctx.Cpu(), budget);
    };
}

OffloadSweepResult
RunOffloadSweep(const OffloadSweepConfig& cfg)
{
    workload::TestbedConfig tc;
    tc.worker_cores = cfg.worker_cores;
    tc.nic_cores = cfg.nic_cores;
    tc.opt = api::OptimizationConfig::None();
    tc.faults = cfg.faults;
    workload::Testbed bed(tc);
    sim::Simulator& sim = bed.Sim();
    machine::Machine& machine = bed.Machine();

    const std::shared_ptr<ghost::SchedPolicy> policy =
        workload::MakeSchedPolicy(workload::PolicyKind::kMultiQueueShinjuku,
                                  kSliceNs);

    // --- the offload datapath ---
    const bool datapath = cfg.core_share > 0 && cfg.nic_cores > 1;
    PipelineConfig pc;
    pc.placement = cfg.placement;
    pc.chain.expected_flows = cfg.flows * 2;
    OffloadPipeline pipeline(sim, pc);

    const sim::TimeNs measure_begin{cfg.warmup_ns};
    const sim::TimeNs measure_end{cfg.warmup_ns + cfg.measure_ns};

    ghost::AgentConfig agent_cfg;
    agent_cfg.iter_window_begin = measure_begin;
    agent_cfg.iter_window_end = measure_end;
    if (datapath) {
        // The co-located slice: bounded stage work on the agent's own
        // core, skipped while the scheduling run queue is deep.
        agent_cfg.aux_stage = ColocatedAuxStage(pipeline, *policy);
    }
    bed.StartAgent(policy, std::move(agent_cfg));

    if (cfg.supervise) {
        bed.Supervise(static_cast<sim::DurationNs>(cfg.watchdog_timeout_ns),
                      static_cast<sim::DurationNs>(cfg.watchdog_check_ns));
    }

    workload::KvService& service = bed.AddService(cfg.num_workers);
    service.SetMeasureWindow(measure_begin, measure_end);

    bed.Start();

    workload::LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.end_time = measure_end;
    lg.seed = sim::StreamSeed(cfg.seed, "workload");
    bed.SpawnLoad(lg);

    if (datapath) {
        for (int core = 1; core < cfg.nic_cores; ++core) {
            pipeline.AddWorker(machine.NicCpu(core));
        }
        pipeline.Start();
        pipeline.SetMeasureWindow(measure_begin, measure_end);

        PacketGenConfig pg;
        pg.rate_pps = cfg.core_share * cfg.full_rate_pps;
        pg.flows = cfg.flows;
        pg.end_time = measure_end;
        pg.seed = sim::StreamSeed(cfg.seed, "packets");
        sim.Spawn(RunPacketGenerator(sim, pipeline, pg));
    }

    bed.ArmFaults();

    // Occupancy snapshots bracketing the measure window.
    machine::Cpu::Occupancy agent_core_begin{}, agent_core_end{};
    std::vector<machine::Cpu::Occupancy> dp_begin(
        static_cast<std::size_t>(cfg.nic_cores));
    std::vector<machine::Cpu::Occupancy> dp_end(
        static_cast<std::size_t>(cfg.nic_cores));
    sim.ScheduleAt(measure_begin, [&] {
        agent_core_begin = machine.NicCpu(0).Snapshot();
        for (int c = 1; c < cfg.nic_cores; ++c) {
            dp_begin[static_cast<std::size_t>(c)] =
                machine.NicCpu(c).Snapshot();
        }
    });
    sim.ScheduleAt(measure_end, [&] {
        agent_core_end = machine.NicCpu(0).Snapshot();
        for (int c = 1; c < cfg.nic_cores; ++c) {
            dp_end[static_cast<std::size_t>(c)] =
                machine.NicCpu(c).Snapshot();
        }
    });

    sim.RunUntil(sim::TimeNs{cfg.warmup_ns + cfg.measure_ns +
                             cfg.drain_ns});

    OffloadSweepResult r;
    r.agent_iterations = bed.Agent().Stats().iterations;
    const stats::Histogram& iter = bed.Agent().IterationLatency();
    r.agent_iter_p50 = iter.Percentile(0.50);
    r.agent_iter_p99 = iter.Percentile(0.99);
    r.agent_iter_p999 = iter.Percentile(0.999);

    r.completed = service.CompletedInWindow();
    r.achieved_rps = static_cast<double>(r.completed) /
                     sim::ToSec(sim::DurationNs{cfg.measure_ns});
    const auto& get_hist =
        service.Latency(workload::RequestKind::kGet);
    r.get_p50 = get_hist.Percentile(0.50);
    r.get_p99 = get_hist.Percentile(0.99);

    const PipelineStats& ps = pipeline.Stats();
    r.packets_injected = ps.injected;
    r.packets_completed = ps.completed;
    r.packets_denied = ps.denied;
    r.packets_dropped = ps.dropped;
    r.packets_pending = pipeline.Pending();
    r.achieved_pps =
        static_cast<double>(pipeline.Latency().Count()) /
        sim::ToSec(sim::DurationNs{cfg.measure_ns});
    r.packet_p50 = pipeline.Latency().Percentile(0.50);
    r.packet_p99 = pipeline.Latency().Percentile(0.99);
    r.parse_errors =
        pipeline.Chain().Stats(StageKind::kHttpParser).parse_errors;
    r.scan_hits =
        pipeline.Chain().Stats(StageKind::kRegexScan).scan_hits;
    r.new_flows =
        pipeline.Chain().Stats(StageKind::kLoadBalancer).new_flows;

    const auto window = sim::DurationNs{cfg.measure_ns};
    r.agent_core_busy =
        machine::BusyFraction(agent_core_begin, agent_core_end, window);
    double dp_sum = 0;
    for (int c = 1; c < cfg.nic_cores; ++c) {
        dp_sum += machine::BusyFraction(dp_begin[static_cast<std::size_t>(c)],
                                        dp_end[static_cast<std::size_t>(c)],
                                        window);
    }
    r.datapath_core_busy =
        cfg.nic_cores > 1 ? dp_sum / (cfg.nic_cores - 1) : 0.0;

    if (const ghost::AgentSupervisor* supervisor = bed.Supervisor()) {
        r.watchdog_expiries = supervisor->Stats().expiries;
        r.fallback_active = supervisor->Stats().fallback_active;
        r.fallback_at_ns =
            static_cast<std::uint64_t>(supervisor->Stats().fallback_at.ns());
    }
    r.event_hash = sim.EventHash();
    return r;
}

}  // namespace wave::offload
