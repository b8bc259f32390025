// wave-domain: host
#include "workload/sched_experiment.h"

#include <utility>

namespace wave::workload {

namespace {

std::shared_ptr<ghost::SchedPolicy>
MakePolicy(const SchedExperimentConfig& cfg)
{
    switch (cfg.policy) {
      case PolicyKind::kFifo:
        return std::make_shared<sched::FifoPolicy>();
      case PolicyKind::kShinjuku:
        return std::make_shared<sched::ShinjukuPolicy>(cfg.slice_ns);
      case PolicyKind::kMultiQueueShinjuku:
      default:
        return std::make_shared<sched::MultiQueueShinjukuPolicy>(
            cfg.slice_ns);
    }
}

}  // namespace

SchedExperimentResult
RunSchedExperiment(const SchedExperimentConfig& cfg)
{
    sim::Simulator sim;

    machine::MachineConfig mc;
    mc.host_cores = cfg.worker_cores + 1;  // +1 for a possible host agent
    if (cfg.nic_speed > 0) mc.nic_speed = cfg.nic_speed;
    machine::Machine machine(sim, mc);

    WaveRuntime runtime(sim, machine, cfg.pcie, cfg.opt);

    // Worker cores are 0..worker_cores-1; the on-host agent (if any)
    // runs on the last core, mirroring the paper's 15+1 split.
    std::vector<int> worker_cores;
    for (int i = 0; i < cfg.worker_cores; ++i) worker_cores.push_back(i);

    std::unique_ptr<ghost::SchedTransport> transport;
    if (cfg.deployment == Deployment::kWave) {
        transport = std::make_unique<ghost::WaveSchedTransport>(
            runtime, cfg.worker_cores);
    } else {
        transport = std::make_unique<ghost::ShmSchedTransport>(
            sim, cfg.worker_cores);
    }

    ghost::KernelOptions kernel_options;
    // Decision prefetching is the host half of the §5.4 optimization;
    // it rides the optimization ladder together with prestaging.
    kernel_options.prefetch_decisions =
        cfg.deployment == Deployment::kOnHost || cfg.opt.prestage_prefetch;
    kernel_options.poll_idle = cfg.poll_mode;
    ghost::KernelSched kernel(sim, machine, *transport, ghost::GhostCosts{},
                              kernel_options);

    auto policy = MakePolicy(cfg);
    ghost::AgentConfig agent_cfg;
    agent_cfg.cores = worker_cores;
    agent_cfg.prestage = cfg.prestage;
    agent_cfg.prestage_min_depth = cfg.prestage_min_depth;
    agent_cfg.use_kicks = !cfg.poll_mode;
    auto agent =
        std::make_shared<ghost::GhostAgent>(*transport, policy, agent_cfg);

    std::unique_ptr<AgentContext> host_agent_ctx;
    if (cfg.deployment == Deployment::kWave) {
        runtime.StartWaveAgent(agent, /*nic_core=*/0);
    } else {
        // The on-host agent occupies the extra host core.
        host_agent_ctx = std::make_unique<AgentContext>(
            sim, machine.HostCpu(cfg.worker_cores));
        sim.Spawn(agent->Run(*host_agent_ctx));
    }

    auto on_assign = [&policy, &cfg](ghost::Tid tid, std::uint32_t slo) {
        if (cfg.policy == PolicyKind::kMultiQueueShinjuku) {
            static_cast<sched::MultiQueueShinjukuPolicy*>(policy.get())
                ->SetThreadSlo(tid, slo);
        }
    };
    KvService service(sim, kernel, cfg.num_workers, /*first_tid=*/1000,
                      on_assign);
    service.SetMeasureWindow(sim::TimeNs{cfg.warmup_ns},
                             sim::TimeNs{cfg.warmup_ns + cfg.measure_ns});

    kernel.Start(worker_cores);

    LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = sim::TimeNs{cfg.warmup_ns + cfg.measure_ns};
    lg.seed = cfg.seed;
    sim.Spawn(RunLoadGenerator(sim, service, lg));

    sim.RunUntil(sim::TimeNs{cfg.warmup_ns + cfg.measure_ns});

    SchedExperimentResult result;
    result.completed = service.CompletedInWindow();
    result.achieved_rps = static_cast<double>(result.completed) /
                          sim::ToSec(cfg.measure_ns);
    const auto& get_hist = service.Latency(RequestKind::kGet);
    result.get_p50 = get_hist.Percentile(0.50);
    result.get_p99 = get_hist.Percentile(0.99);
    result.get_p999 = get_hist.Percentile(0.999);
    result.range_p99 =
        service.Latency(RequestKind::kRange).Percentile(0.99);
    result.ctx_switch_p50 =
        kernel.Stats().ctx_switch_overhead.Percentile(0.50);
    result.commits_failed = kernel.Stats().commits_failed;
    result.prestage_hits = kernel.Stats().prestage_hits;
    result.idle_waits = kernel.Stats().idle_waits;
    result.preemptions = kernel.Stats().preemptions;
    result.agent_decisions = agent->Stats().decisions;
    result.agent_prestages = agent->Stats().prestages;
    result.agent_kicks = agent->Stats().kicks;
    result.messages_sent = kernel.Stats().messages_sent;
    result.event_hash = sim.EventHash();
    return result;
}

double
FindSaturationThroughput(const SchedExperimentConfig& base,
                         double start_rps, double end_rps, double step_rps,
                         double efficiency, std::vector<LadderPoint>* visited)
{
    LadderWalk walk = WalkLadder(start_rps, end_rps, step_rps, [&](double rps) {
        SchedExperimentConfig cfg = base;
        cfg.offered_rps = rps;
        const SchedExperimentResult r = RunSchedExperiment(cfg);
        return LadderPoint{rps, r.achieved_rps,
                           r.achieved_rps >= efficiency * rps, r.event_hash};
    });
    if (visited != nullptr) *visited = std::move(walk.points);
    return walk.saturation_rps;
}

}  // namespace wave::workload
