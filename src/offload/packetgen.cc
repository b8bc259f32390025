// wave-domain: neutral
#include "offload/packetgen.h"

namespace wave::offload {

namespace {

/** Zipf skew of flow popularity over the flow universe. */
constexpr double kZipfTheta = 0.9;

/** Payload length range (uniform, inclusive). */
constexpr std::uint32_t kPayloadMin = 64;
constexpr std::uint32_t kPayloadMax = 1024;

/** Fraction of packets carrying a rendered HTTP request. */
constexpr double kHttpFraction = 0.75;

}  // namespace

FiveTuple
FlowTuple(std::size_t flow)
{
    // Deterministic synthetic universe: clients in 10.x.y.z hitting one
    // VIP, source ports spread so Toeplitz/connection keys differ.
    FiveTuple t;
    const auto f = static_cast<std::uint32_t>(flow);
    t.src_ip = 0x0a000000u | ((f & 0xffffu) << 8) | ((f >> 16) & 0xffu);
    t.dst_ip = 0xc0a80001u;  // 192.168.0.1 (the load-balancer VIP)
    t.src_port = static_cast<std::uint16_t>(1024 + (f * 7919) % 60000);
    t.dst_port = 80;
    t.proto = 6;
    return t;
}

// wave-lifetime(spawn-safe: sim and the pipeline are owned by the caller's frame, which runs the simulator to completion before destroying them; config is taken by value)
sim::Task<>
RunPacketGenerator(sim::Simulator& sim, OffloadPipeline& pipeline,
                   PacketGenConfig config)
{
    if (config.rate_pps <= 0) co_return;
    // Distinct streams so tuning the payload mix never perturbs the
    // arrival process (same discipline as the workload load generator).
    sim::Rng arrivals(sim::StreamSeed(config.seed, "pkt-arrivals"));
    sim::Rng shape(sim::StreamSeed(config.seed, "pkt-shape"));
    const sim::ZipfDistribution zipf(config.flows, kZipfTheta);
    const double mean_gap_ns = 1e9 / config.rate_pps;

    while (sim.Now() < config.end_time) {
        const double gap = arrivals.NextExponential(mean_gap_ns);
        co_await sim.Delay(sim::DurationNs::FromDouble(gap));
        if (sim.Now() >= config.end_time) break;

        const std::size_t flow = zipf.Sample(shape);
        PacketDesc desc;
        desc.tuple = FlowTuple(flow);
        desc.payload_len = static_cast<std::uint32_t>(shape.NextInRange(
            kPayloadMin, kPayloadMax));
        desc.payload_seed = shape.Next();
        desc.http = shape.NextBernoulli(kHttpFraction);
        desc.http_key = static_cast<std::uint32_t>(flow);
        pipeline.Inject(desc);  // false = counted RX drop (open loop)
    }
}

}  // namespace wave::offload
