/**
 * @file
 * The benchmark's three workloads: their fixed configurations and the
 * per-point outputs the benchmark checks and reports.
 *
 * The seed is the only input that varies between runs, and it reaches
 * only the load generator (the config's `seed` field). Everything else
 * is fixed here, so a recorded fingerprint pins one (workload, seed).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rpc/rpc_experiment.h"
#include "workload/sched_experiment.h"

namespace perfbench {

enum class Kind {
    kSweep,        ///< fifo_wave_sweep: saturation search, Wave-16
    kOnHostPoint,  ///< fifo_onhost_point: one On-Host FIFO point
    kRpcPoint,     ///< rpc_mq_point: one Offload-All multi-queue point
};

/** Parses a workload name; returns false for an unknown name. */
bool ParseKind(const std::string& name, Kind& kind);

/**
 * Fig 4a ladder searched by fifo_wave_sweep (the bench's --quick, which
 * goes on to 1.4M). Every recorded seed passes at 1.2M, so ending at
 * 1.3M makes the search visit exactly 4 points whatever the seed: a
 * seed that passes at 1.3M would otherwise go on to a fifth point.
 */
inline constexpr double kSweepStartRps = 1'000'000;
inline constexpr double kSweepEndRps = 1'300'000;
inline constexpr double kSweepStepRps = 100'000;
inline constexpr double kSweepEfficiency = 0.97;

/** Fig 4a Wave-16 at one ladder rate (offered_rps set by the caller). */
wave::workload::SchedExperimentConfig SweepConfig(std::uint64_t seed);

/** Fig 4a On-Host at 800k rps. */
wave::workload::SchedExperimentConfig OnHostConfig(std::uint64_t seed);

/** Fig 6b Offload-All, multi-queue Shinjuku, at 120k rps. */
wave::rpc::RpcExperimentConfig RpcConfig(std::uint64_t seed);

/** FindSaturationThroughput over the fifo_wave_sweep ladder. */
double FindSweepSaturation(const wave::workload::SchedExperimentConfig& cfg);

/**
 * Makes the workload's harness call with a simulated window that ends
 * before the first arrival: it costs only building and tearing down the
 * deployment (all 4 ladder deployments for the sweep; the RPC harness
 * also simulates its fixed 2 ms drain).
 */
void RunSetupOnly(Kind kind, std::uint64_t seed);

/** One load point's simulated outputs. */
struct PointResult {
    double offered_rps = 0;
    std::uint64_t fingerprint = 0;  ///< Simulator::EventHash()
    std::uint64_t completed = 0;    ///< requests completed in the window
    double achieved_rps = 0;
    std::uint64_t get_p50_ns = 0;
    std::uint64_t get_p99_ns = 0;
};

PointResult FromResult(double offered_rps,
                       const wave::workload::SchedExperimentResult& r);
PointResult FromResult(double offered_rps,
                       const wave::rpc::RpcExperimentResult& r);

/** Makes one harness call (@p call) and returns its point; a runner may
    time the call. */
using PointRunner =
    std::function<PointResult(const std::function<PointResult()>& call)>;

/** The runner that only makes the call. */
inline PointResult
Untimed(const std::function<PointResult()>& call)
{
    return call();
}

/**
 * Runs the workload's load points through the public harness entry
 * points, each call made by @p run_point: the sweep's ladder points
 * (RunLadder over RunSchedExperiment, since FindSaturationThroughput
 * reports no per-point outputs), or the one point of a point workload.
 */
std::vector<PointResult> HarnessPoints(Kind kind, std::uint64_t seed,
                                       const PointRunner& run_point);

/**
 * The ladder points fifo_wave_sweep visits, run one at a time with
 * @p run_point, under FindSaturationThroughput's stopping rule: keep
 * climbing while achieved stays within kSweepEfficiency of offered,
 * stop at the first point past the knee. The benchmark checks that the
 * two agree on the saturation every run.
 */
template <typename RunPoint>
std::vector<PointResult>
RunLadder(RunPoint&& run_point)
{
    std::vector<PointResult> points;
    double best = 0;
    for (double rps = kSweepStartRps; rps <= kSweepEndRps + 1;
         rps += kSweepStepRps) {
        points.push_back(run_point(rps));
        const PointResult& p = points.back();
        if (p.achieved_rps >= kSweepEfficiency * rps) {
            best = p.achieved_rps > best ? p.achieved_rps : best;
        } else if (best > 0) {
            break;
        }
    }
    return points;
}

/** JSON for a list of points (fingerprints as hex strings). */
std::string PointsJson(const std::vector<PointResult>& points);

/**
 * JSON for the workload's configuration at @p seed. The self-test
 * checks that only its `seed` field changes with the seed.
 */
std::string ConfigJson(Kind kind, std::uint64_t seed);

}  // namespace perfbench
