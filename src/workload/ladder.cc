// wave-domain: host
#include "workload/ladder.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "sim/logging.h"

namespace wave::workload {

namespace {

/**
 * Runs the @p n points at @p offered at once and returns their
 * outcomes in ladder order. A point that throws rethrows here, after
 * every thread has joined, as it would from a serial walk.
 */
std::vector<LadderPoint>
RunWave(const double* offered, std::size_t n, const LadderPointFn& run_point)
{
    std::vector<LadderPoint> wave(n);
    std::vector<std::exception_ptr> errors(n);
    auto run = [&](std::size_t i) {
        try {
            wave[i] = run_point(offered[i]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    {
        // Leaving this scope joins every worker, before the outcomes
        // are read.
        std::vector<std::jthread> workers;
        workers.reserve(n - 1);
        for (std::size_t i = 1; i < n; ++i) workers.emplace_back(run, i);
        run(0);
    }
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
    return wave;
}

}  // namespace

unsigned
LadderWidth()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

LadderWalk
WalkLadder(double start_rps, double end_rps, double step_rps,
           const LadderPointFn& run_point, unsigned width)
{
    WAVE_ASSERT(step_rps > 0 && width > 0, "ladder step %g, width %u",
                step_rps, width);
    // Accumulated step by step, not computed as start + i * step, so
    // each point's offered load keeps the exact value the recorded
    // figures and fingerprints were produced with.
    std::vector<double> ladder;
    for (double rps = start_rps; rps <= end_rps + 1; rps += step_rps) {
        ladder.push_back(rps);
    }

    LadderWalk walk;
    for (std::size_t next = 0; next < ladder.size(); next += width) {
        const std::size_t n = std::min<std::size_t>(width, ladder.size() - next);
        for (const LadderPoint& point : RunWave(&ladder[next], n, run_point)) {
            walk.points.push_back(point);
            if (point.passed) {
                walk.saturation_rps =
                    std::max(walk.saturation_rps, point.achieved_rps);
            } else if (walk.saturation_rps > 0) {
                return walk;  // past the knee; achieved has flattened
            }
        }
    }
    return walk;
}

}  // namespace wave::workload
