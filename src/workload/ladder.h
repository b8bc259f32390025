/**
 * @file
 * The offered-load ladder behind the saturation searches
 * (FindSaturationThroughput, rpc::FindRpcSaturation).
 *
 * A search offers load at start, start + step, ... up to end, one
 * complete deployment per point, and keeps climbing while the points
 * pass. Once some point has passed, the first point that fails is past
 * the knee (achieved flattens while offered keeps growing) and ends
 * the walk. The answer is the highest achieved rate among the passing
 * points.
 *
 * The points are independent deployments, so the runner takes them in
 * waves: up to `width` consecutive points at once, each on its own
 * thread, the caller's thread running the first. It then applies the
 * stopping rule to the wave in ladder order. The answer and the
 * visited points are therefore those of the serial walk, and at most
 * width - 1 points past the knee are wasted work. A width of 1 is the
 * serial walk.
 */
// wave-domain: host
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace wave::workload {

/** One ladder point's outcome. */
struct LadderPoint {
    double offered_rps = 0;
    double achieved_rps = 0;
    /** Within the search's bounds (efficiency, and any latency SLO). */
    bool passed = false;
    /** The point's simulator event-stream fingerprint. */
    std::uint64_t event_hash = 0;
};

/** A finished walk. */
struct LadderWalk {
    /** Highest achieved rate among the passing points; 0 if none. */
    double saturation_rps = 0;
    /** The points the serial walk visits, in ladder order. */
    std::vector<LadderPoint> points;
};

/**
 * Runs the deployment for one offered load. Points of one wave run at
 * once on separate threads, so calls must share no mutable state.
 */
using LadderPointFn = std::function<LadderPoint(double offered_rps)>;

/** The machine's hardware threads, at least 1: the searches' width. */
unsigned LadderWidth();

/**
 * Walks the ladder start_rps, start_rps + step_rps, ... while
 * <= end_rps, running up to @p width consecutive points at once.
 */
LadderWalk WalkLadder(double start_rps, double end_rps, double step_rps,
                      const LadderPointFn& run_point,
                      unsigned width = LadderWidth());

}  // namespace wave::workload
