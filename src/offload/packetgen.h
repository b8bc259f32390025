/**
 * @file
 * Open-loop packet generator feeding the offload pipeline.
 *
 * Poisson arrivals at a configured aggregate rate; flow popularity is
 * Zipf over a fixed flow universe (no new-flow churn in steady state,
 * so the connection table warms once); payload sizes are uniform in a
 * range; a fixed fraction of packets carry a rendered HTTP GET
 * (the rest are opaque filler). Open loop means drops at the pool are
 * *counted, not back-pressured* — exactly how an RX ring sheds load.
 */
// wave-domain: neutral
#pragma once

#include <cstdint>

#include "offload/pipeline.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace wave::offload {

struct PacketGenConfig {
    /** Aggregate offered packet rate. <= 0 disables the generator. */
    double rate_pps = 200'000;

    /** Fixed flow universe size (Zipf-distributed popularity). */
    std::size_t flows = 256;

    /** No arrivals at or after this time. */
    sim::TimeNs end_time{};

    std::uint64_t seed = 1;
};

/** Deterministic 5-tuple for flow @p flow of the generator universe. */
FiveTuple FlowTuple(std::size_t flow);

/** The open-loop arrival process (spawn on the simulator). */
sim::Task<> RunPacketGenerator(sim::Simulator& sim,
                               OffloadPipeline& pipeline,
                               PacketGenConfig config);

}  // namespace wave::offload
