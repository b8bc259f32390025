/**
 * @file
 * Benchmark binary: runs one workload through the public harness entry
 * points and prints one JSON report line for perfbench/run.py.
 *
 *   wave_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *
 * --trace 0 times the harness calls (workload::RunSchedExperiment,
 * workload::FindSaturationThroughput, rpc::RunRpcExperiment) with no
 * instrumentation and reports host cost plus the simulated outputs of
 * every point. --trace 1 runs the traced rebuild in traced.cc instead.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "host.h"
#include "json.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** Set-up calls timed, each on its own, at the start of every pass. */
constexpr int kSetupsPerPass = 3;

/** Timed passes made even when one overruns the time budget. */
constexpr std::size_t kMinPasses = 3;

/** Host seconds of timed calls and of the reference rung around them. */
struct HostTimes {
    std::vector<double> wall_s;  ///< one per call
    std::vector<double> ref_s;   ///< two per Time(): before and after

    /**
     * Times @p calls calls of @p run, each on its own, between two
     * repetitions of the reference rung, so that the rung is sampled
     * through the run as the calls are.
     */
    template <typename Run>
    void
    Time(int calls, Run&& run)
    {
        ref_s.push_back(ReferenceRungS());
        for (int i = 0; i < calls; ++i) wall_s.push_back(TimeS(run));
        ref_s.push_back(ReferenceRungS());
    }
};

/**
 * --trace 0. Runs passes until the run has used @p seconds, never
 * starting a pass that the previous one's duration says would overrun,
 * but always making kMinPasses. A pass times kSetupsPerPass set-up
 * calls, so the set-up samples span the whole run, then the workload's
 * harness calls: FindSaturationThroughput for the sweep, the one
 * RunSchedExperiment or RunRpcExperiment call for a point workload.
 */
int
RunEndToEnd(Kind kind, std::uint64_t seed, double seconds)
{
    const double t_start = NowS();
    HostTimes setups;
    HostTimes passes;
    std::vector<PointResult> points;
    std::vector<double> saturation_rps;

    const wave::workload::SchedExperimentConfig sweep = SweepConfig(seed);
    if (kind == Kind::kSweep) {
        // The ladder's per-point outputs, checked against the recording,
        // come from one untimed walk; every timed pass then checks
        // FindSaturationThroughput's answer.
        points = HarnessPoints(kind, seed, Untimed);
    }
    const PointRunner timed = [&](const std::function<PointResult()>& call) {
        PointResult p;
        passes.Time(1, [&] { p = call(); });
        return p;
    };

    double last = 0;
    for (std::size_t n = 0;
         n < kMinPasses || NowS() - t_start + last <= seconds; ++n) {
        const double pass_start = NowS();
        setups.Time(kSetupsPerPass, [&] { RunSetupOnly(kind, seed); });
        if (kind == Kind::kSweep) {
            passes.Time(1, [&] {
                saturation_rps.push_back(FindSweepSaturation(sweep));
            });
        } else {
            for (const PointResult& p : HarnessPoints(kind, seed, timed)) {
                points.push_back(p);
            }
        }
        last = NowS() - pass_start;
    }

    std::printf("%s\n", JsonObject()
                            .Str("mode", "e2e")
                            .Raw("config", ConfigJson(kind, seed))
                            .Raw("points", PointsJson(points))
                            .Nums("saturation_rps", saturation_rps)
                            .Nums("pass_wall_s", passes.wall_s)
                            .Nums("pass_ref_s", passes.ref_s)
                            .Nums("setup_wall_s", setups.wall_s)
                            .Nums("setup_ref_s", setups.ref_s)
                            .Num("peak_rss_mb", PeakRssMb())
                            .Str()
                            .c_str());
    return 0;
}

int
Usage()
{
    std::fprintf(stderr,
                 "usage: wave_perfbench --workload <fifo_wave_sweep|"
                 "fifo_onhost_point|rpc_mq_point> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* flag = argv[i];
        const char* value = argv[i + 1];
        if (std::strcmp(flag, "--workload") == 0) {
            workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            seed = std::strtoull(value, nullptr, 10);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            seconds = std::strtod(value, nullptr);
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = std::atoi(value);
        } else {
            return Usage();
        }
    }
    Kind kind;
    if (argc % 2 != 1 || !ParseKind(workload, kind) || seconds <= 0 ||
        (trace != 0 && trace != 1)) {
        return Usage();
    }
    return trace == 0 ? RunEndToEnd(kind, seed, seconds)
                      : RunTraced(kind, seed, seconds);
}
