#include "workloads.h"

#include "json.h"

namespace perfbench {

using wave::rpc::RpcExperimentConfig;
using wave::rpc::RpcScenario;
using wave::workload::Deployment;
using wave::workload::PolicyKind;
using wave::workload::SchedExperimentConfig;

bool
ParseKind(const std::string& name, Kind& kind)
{
    if (name == "fifo_wave_sweep") {
        kind = Kind::kSweep;
    } else if (name == "fifo_onhost_point") {
        kind = Kind::kOnHostPoint;
    } else if (name == "rpc_mq_point") {
        kind = Kind::kRpcPoint;
    } else {
        return false;
    }
    return true;
}

namespace {

/** The Fig 4a scenario shared by the two FIFO workloads. */
SchedExperimentConfig
Fig4a(std::uint64_t seed)
{
    SchedExperimentConfig cfg;
    cfg.policy = PolicyKind::kFifo;
    cfg.num_workers = 64;
    cfg.prestage_min_depth = 4;
    cfg.get_fraction = 1.0;
    cfg.get_service_ns = 10'000;
    cfg.seed = seed;
    return cfg;
}

}  // namespace

SchedExperimentConfig
SweepConfig(std::uint64_t seed)
{
    SchedExperimentConfig cfg = Fig4a(seed);
    cfg.deployment = Deployment::kWave;
    cfg.worker_cores = 16;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    return cfg;
}

SchedExperimentConfig
OnHostConfig(std::uint64_t seed)
{
    SchedExperimentConfig cfg = Fig4a(seed);
    cfg.deployment = Deployment::kOnHost;
    cfg.worker_cores = 15;
    cfg.offered_rps = 800'000;
    cfg.warmup_ns = 20'000'000;
    cfg.measure_ns = 80'000'000;
    return cfg;
}

RpcExperimentConfig
RpcConfig(std::uint64_t seed)
{
    RpcExperimentConfig cfg;
    cfg.scenario = RpcScenario::kOffloadAll;
    cfg.multi_queue = true;
    cfg.rocksdb_cores = 16;
    cfg.rpc_cores = 8;
    cfg.num_workers = 64;
    cfg.slice_ns = 30'000;
    cfg.offered_rps = 120'000;
    cfg.get_fraction = 0.995;
    cfg.get_service_ns = 10'000;
    cfg.range_service_ns = 10'000'000;
    cfg.warmup_ns = 10'000'000;
    cfg.measure_ns = 40'000'000;
    cfg.seed = seed;
    return cfg;
}

double
FindSweepSaturation(const SchedExperimentConfig& cfg)
{
    return wave::workload::FindSaturationThroughput(
        cfg, kSweepStartRps, kSweepEndRps, kSweepStepRps, kSweepEfficiency);
}

namespace {

/** The same config with a window that ends before the first arrival. */
template <typename Config>
Config
SetupOnly(Config cfg)
{
    cfg.warmup_ns = 0;
    cfg.measure_ns = 1;
    return cfg;
}

}  // namespace

void
RunSetupOnly(Kind kind, std::uint64_t seed)
{
    switch (kind) {
      case Kind::kSweep:
        FindSweepSaturation(SetupOnly(SweepConfig(seed)));
        return;
      case Kind::kOnHostPoint:
        wave::workload::RunSchedExperiment(SetupOnly(OnHostConfig(seed)));
        return;
      case Kind::kRpcPoint:
        wave::rpc::RunRpcExperiment(SetupOnly(RpcConfig(seed)));
        return;
    }
}

std::vector<PointResult>
HarnessPoints(Kind kind, std::uint64_t seed, const PointRunner& run_point)
{
    switch (kind) {
      case Kind::kSweep:
        return RunLadder([&](double rps) {
            SchedExperimentConfig cfg = SweepConfig(seed);
            cfg.offered_rps = rps;
            return run_point([&] {
                return FromResult(rps, wave::workload::RunSchedExperiment(cfg));
            });
        });
      case Kind::kOnHostPoint: {
        const SchedExperimentConfig cfg = OnHostConfig(seed);
        return {run_point([&] {
            return FromResult(cfg.offered_rps,
                              wave::workload::RunSchedExperiment(cfg));
        })};
      }
      case Kind::kRpcPoint:
      default: {
        const RpcExperimentConfig cfg = RpcConfig(seed);
        return {run_point([&] {
            return FromResult(cfg.offered_rps,
                              wave::rpc::RunRpcExperiment(cfg));
        })};
      }
    }
}

PointResult
FromResult(double offered_rps, const wave::workload::SchedExperimentResult& r)
{
    return {offered_rps, r.event_hash,       r.completed,
            r.achieved_rps, r.get_p50.ns(), r.get_p99.ns()};
}

PointResult
FromResult(double offered_rps, const wave::rpc::RpcExperimentResult& r)
{
    return {offered_rps, r.event_hash,       r.completed,
            r.achieved_rps, r.get_p50.ns(), r.get_p99.ns()};
}

std::string
PointsJson(const std::vector<PointResult>& points)
{
    std::vector<std::string> items;
    for (const PointResult& p : points) {
        items.push_back(JsonObject()
                            .Num("offered_rps", p.offered_rps)
                            .Raw("fingerprint", JsonObject::Hex(p.fingerprint))
                            .Int("completed", p.completed)
                            .Num("achieved_rps", p.achieved_rps)
                            .Int("get_p50_ns", p.get_p50_ns)
                            .Int("get_p99_ns", p.get_p99_ns)
                            .Str());
    }
    return JsonArray(items);
}

namespace {

std::string
SchedConfigJson(const SchedExperimentConfig& c)
{
    return JsonObject()
        .Int("deployment", static_cast<std::uint64_t>(c.deployment))
        .Int("policy", static_cast<std::uint64_t>(c.policy))
        .Int("worker_cores", static_cast<std::uint64_t>(c.worker_cores))
        .Int("num_workers", static_cast<std::uint64_t>(c.num_workers))
        .Int("prestage", c.prestage)
        .Int("prestage_min_depth", c.prestage_min_depth)
        .Int("poll_mode", c.poll_mode)
        .Int("slice_ns", c.slice_ns.ns())
        .Num("nic_speed", c.nic_speed)
        .Num("offered_rps", c.offered_rps)
        .Num("get_fraction", c.get_fraction)
        .Int("get_service_ns", c.get_service_ns.ns())
        .Int("range_service_ns", c.range_service_ns.ns())
        .Int("warmup_ns", c.warmup_ns.ns())
        .Int("measure_ns", c.measure_ns.ns())
        .Int("seed", c.seed)
        .Str();
}

std::string
RpcConfigJson(const RpcExperimentConfig& c)
{
    return JsonObject()
        .Int("scenario", static_cast<std::uint64_t>(c.scenario))
        .Int("multi_queue", c.multi_queue)
        .Int("rocksdb_cores", static_cast<std::uint64_t>(c.rocksdb_cores))
        .Int("rpc_cores", static_cast<std::uint64_t>(c.rpc_cores))
        .Int("num_workers", static_cast<std::uint64_t>(c.num_workers))
        .Int("slice_ns", c.slice_ns.ns())
        .Num("nic_speed", c.nic_speed)
        .Num("offered_rps", c.offered_rps)
        .Num("get_fraction", c.get_fraction)
        .Int("get_service_ns", c.get_service_ns.ns())
        .Int("range_service_ns", c.range_service_ns.ns())
        .Int("warmup_ns", c.warmup_ns.ns())
        .Int("measure_ns", c.measure_ns.ns())
        .Int("seed", c.seed)
        .Str();
}

}  // namespace

std::string
ConfigJson(Kind kind, std::uint64_t seed)
{
    switch (kind) {
      case Kind::kSweep:
        return SchedConfigJson(SweepConfig(seed));
      case Kind::kOnHostPoint:
        return SchedConfigJson(OnHostConfig(seed));
      case Kind::kRpcPoint:
      default:
        return RpcConfigJson(RpcConfig(seed));
    }
}

}  // namespace perfbench
