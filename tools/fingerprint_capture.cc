/**
 * @file
 * Prints the simulator event-stream fingerprint for a range of seeds
 * of one harness family. Used to confirm that refactors keep the
 * executed event stream bit-identical: capture before, capture after,
 * diff.
 *
 *   fingerprint_capture [first [count [family]]]
 *
 * `fuzz` (the default) runs the seeded fuzz scenarios. The other
 * families each run one small fixed harness config with the seed
 * varied; an unknown family name prints the list.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fuzz/runner.h"
#include "fuzz/scenario.h"
#include "offload/sweep.h"
#include "rpc/rpc_experiment.h"
#include "workload/sched_experiment.h"

namespace {

using namespace wave;

struct Capture {
    std::uint64_t event_hash;
    std::uint64_t completed;
};

Capture
Fuzz(std::uint64_t seed)
{
    const fuzz::RunResult r =
        fuzz::RunScenario(fuzz::GenerateScenario(seed));
    return {r.event_hash, r.completed};
}

Capture
Sched(workload::Deployment deployment, std::uint64_t seed)
{
    workload::SchedExperimentConfig cfg;
    cfg.deployment = deployment;
    cfg.worker_cores = 4;
    cfg.num_workers = 16;
    cfg.offered_rps = 200'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.seed = seed;
    const workload::SchedExperimentResult r =
        workload::RunSchedExperiment(cfg);
    return {r.event_hash, r.completed};
}

Capture
Rpc(rpc::RpcScenario scenario, std::uint64_t seed)
{
    rpc::RpcExperimentConfig cfg;
    cfg.scenario = scenario;
    cfg.multi_queue = true;
    cfg.rocksdb_cores = 4;
    cfg.rpc_cores = 2;
    cfg.num_workers = 16;
    cfg.offered_rps = 30'000;
    cfg.warmup_ns = 5'000'000;
    cfg.measure_ns = 20'000'000;
    cfg.seed = seed;
    const rpc::RpcExperimentResult r = rpc::RunRpcExperiment(cfg);
    return {r.event_hash, r.completed};
}

Capture
Offload(offload::Placement placement, double core_share, bool crash,
        std::uint64_t seed)
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
    cfg.seed = seed;
    if (crash) {
        cfg.supervise = true;
        cfg.watchdog_timeout_ns = 3'000'000;
        cfg.faults.push_back({sim::inject::FaultKind::kAgentCrash,
                              sim::TimeNs{8'000'000}, 0, 0});
    }
    const offload::OffloadSweepResult r = offload::RunOffloadSweep(cfg);
    return {r.event_hash, r.completed};
}

struct Family {
    const char* name;
    Capture (*run)(std::uint64_t seed);
};

using offload::Placement;
using rpc::RpcScenario;
using workload::Deployment;

constexpr Family kFamilies[] = {
    {"fuzz", Fuzz},
    {"sched-wave", [](std::uint64_t s) { return Sched(Deployment::kWave, s); }},
    {"sched-onhost",
     [](std::uint64_t s) { return Sched(Deployment::kOnHost, s); }},
    {"rpc-offload",
     [](std::uint64_t s) { return Rpc(RpcScenario::kOffloadAll, s); }},
    {"rpc-onhost-all",
     [](std::uint64_t s) { return Rpc(RpcScenario::kOnHostAll, s); }},
    {"rpc-onhost-sched",
     [](std::uint64_t s) { return Rpc(RpcScenario::kOnHostScheduler, s); }},
    {"offload-rtc",
     [](std::uint64_t s) {
         return Offload(Placement::kRunToCompletion, 0.5, false, s);
     }},
    {"offload-pipelined",
     [](std::uint64_t s) {
         return Offload(Placement::kPipelined, 0.75, false, s);
     }},
    {"offload-supervised",
     [](std::uint64_t s) {
         return Offload(Placement::kRunToCompletion, 0.5, true, s);
     }},
};

}  // namespace

int main(int argc, char** argv)
{
    const unsigned long long first = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
    const unsigned long long count = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
    const char* name = argc > 3 ? argv[3] : "fuzz";
    const Family* family = nullptr;
    for (const Family& f : kFamilies) {
        if (std::strcmp(f.name, name) == 0) family = &f;
    }
    if (family == nullptr) {
        std::fprintf(stderr, "families:");
        for (const Family& f : kFamilies) {
            std::fprintf(stderr, " %s", f.name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }
    for (unsigned long long seed = first; seed < first + count; ++seed) {
        const Capture c = family->run(seed);
        std::printf("seed=%llu event_hash=%016llx completed=%llu\n", seed,
                    static_cast<unsigned long long>(c.event_hash),
                    static_cast<unsigned long long>(c.completed));
    }
    return 0;
}
