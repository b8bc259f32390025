// wave-domain: host
#include "workload/sched_experiment.h"

#include <utility>

namespace wave::workload {

SchedExperimentResult
RunSchedExperiment(const SchedExperimentConfig& cfg)
{
    TestbedConfig tc;
    tc.placement = cfg.deployment;
    tc.worker_cores = cfg.worker_cores;
    tc.nic_speed = cfg.nic_speed;
    tc.pcie = cfg.pcie;
    tc.opt = cfg.opt;
    // Decision prefetching is the host half of the §5.4 optimization;
    // it rides the optimization ladder together with prestaging.
    tc.kernel.prefetch_decisions =
        cfg.deployment == Deployment::kOnHost || cfg.opt.prestage_prefetch;
    tc.kernel.poll_idle = cfg.poll_mode;
    Testbed bed(tc);

    ghost::AgentConfig agent_cfg;
    agent_cfg.prestage = cfg.prestage;
    agent_cfg.prestage_min_depth = cfg.prestage_min_depth;
    bed.StartAgent(MakeSchedPolicy(cfg.policy, cfg.slice_ns), agent_cfg);

    const sim::TimeNs end{cfg.warmup_ns + cfg.measure_ns};
    KvService& service = bed.AddService(cfg.num_workers);
    service.SetMeasureWindow(sim::TimeNs{cfg.warmup_ns}, end);

    bed.Start();

    LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = end;
    lg.seed = cfg.seed;
    bed.SpawnLoad(lg);

    bed.Sim().RunUntil(end);

    const ghost::KernelStats& ks = bed.Kernel().Stats();
    const ghost::AgentStats& as = bed.Agent().Stats();
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
    result.ctx_switch_p50 = ks.ctx_switch_overhead.Percentile(0.50);
    result.commits_failed = ks.commits_failed;
    result.prestage_hits = ks.prestage_hits;
    result.idle_waits = ks.idle_waits;
    result.preemptions = ks.preemptions;
    result.agent_decisions = as.decisions;
    result.agent_prestages = as.prestages;
    result.agent_kicks = as.kicks;
    result.messages_sent = ks.messages_sent;
    result.event_hash = bed.Sim().EventHash();
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
