/**
 * @file
 * Layer rungs: each layer's public hot call timed in isolation, in host
 * nanoseconds per operation, next to the reference rung timed in the
 * same process.
 */
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/** One timed rung. */
struct Rung {
    std::string name;  ///< metric name, e.g. "sim.event_ns"
    double ns = 0;     ///< host ns per operation (fastest repetition)
};

/**
 * Times every rung. Each rung checks its own result (data read back
 * equals data written, a pick returns the queued tid, hook counters
 * advance by exactly the calls made) and the process aborts on a
 * mismatch, so no rung can time a no-op. The first entry is the
 * reference rung, "ref_ns".
 */
std::vector<Rung> MeasureRungs();

}  // namespace perfbench
