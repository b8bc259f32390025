/**
 * @file
 * Open-loop Poisson load generator.
 *
 * Generates KV requests at a configured offered rate with exponential
 * inter-arrivals, mixing GETs and RANGEs per the experiment (§7.2:
 * 100% 10 µs GETs for FIFO; 99.5% GET + 0.5% 10 ms RANGE for
 * Shinjuku). Open loop: arrivals do not slow down when the system
 * backs up, so tail latency explodes past saturation, producing the
 * throughput-latency curves of Figures 4 and 6.
 */
// wave-domain: host
#pragma once

#include <functional>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "workload/kv_service.h"
#include "workload/request.h"

namespace wave::workload {

/** Load-generation parameters. */
struct LoadGenConfig {
    /** Offered load in requests per second. */
    double rate_rps = 100'000;

    /** Fraction of requests that are GETs (the rest are RANGEs). */
    double get_fraction = 1.0;

    sim::DurationNs get_service_ns = 10'000;         ///< 10 us
    sim::DurationNs range_service_ns = 10'000'000;   ///< 10 ms

    /** Generation stops at this simulated time. */
    sim::TimeNs end_time{};

    std::uint64_t seed = 1;
};

/** Runs the generator as a simulation process handing arrivals to @p sink. */
sim::Task<> RunLoadGenerator(sim::Simulator& sim,
                             std::function<void(Request)> sink,
                             LoadGenConfig config);

/** Runs the generator as a simulation process submitting to @p service. */
sim::Task<> RunLoadGenerator(sim::Simulator& sim, KvService& service,
                             LoadGenConfig config);

}  // namespace wave::workload
