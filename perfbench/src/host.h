/**
 * @file
 * Host-side clocks and the reference rung every host time is compared
 * with.
 */
#pragma once

#include <sys/resource.h>

#include <chrono>

namespace perfbench {

/** Host monotonic clock, in seconds. */
inline double
NowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <typename F>
double
TimeS(F&& f)
{
    const double t0 = NowS();
    f();
    return NowS() - t0;
}

/** Peak resident set of this process so far, in MiB. */
inline double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * One repetition of the reference rung, in seconds: a fixed churn
 * through std::priority_queue (the event queue the simulator's timing
 * wheel replaced, the queue ladder's reference) and through a
 * std::unordered_map of the size the checkers' shadow maps reach, the
 * two kinds of work the simulator's hot paths do. It shares no code
 * with the simulator, so a ratio against it cancels machine speed and
 * load but not a change to the simulator. Aborts if the heap pops out
 * of order or the map misses a stored key, so it never times a no-op.
 */
double ReferenceRungS();

/** Operations in one ReferenceRungS() repetition: half heap push+pop
    pairs, half map inserts and lookups. */
inline constexpr int kReferenceOps = 1 << 19;

}  // namespace perfbench
