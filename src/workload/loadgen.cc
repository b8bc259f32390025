// wave-domain: host
#include "workload/loadgen.h"

namespace wave::workload {

namespace {

/** GETs are the strict SLO class for multi-queue Shinjuku. */
constexpr std::uint32_t kGetSlo = 0;
constexpr std::uint32_t kRangeSlo = 1;

}  // namespace

// wave-lifetime(spawn-safe: sim and whatever the sink borrows are owned by the experiment frame, which runs the simulator to completion before returning; sink and config are taken by value)
sim::Task<>
RunLoadGenerator(sim::Simulator& sim, std::function<void(Request)> sink,
                 LoadGenConfig config)
{
    sim::Rng rng(config.seed);
    const double mean_gap_ns = 1e9 / config.rate_rps;
    std::uint64_t next_id = 1;

    while (sim.Now() < config.end_time) {
        const double gap = rng.NextExponential(mean_gap_ns);
        co_await sim.Delay(sim::DurationNs::FromDouble(gap));
        if (sim.Now() >= config.end_time) break;

        Request request;
        request.id = next_id++;
        request.arrival = sim.Now();
        if (rng.NextBernoulli(config.get_fraction)) {
            request.kind = RequestKind::kGet;
            request.slo_class = kGetSlo;
            request.service_ns = config.get_service_ns;
        } else {
            request.kind = RequestKind::kRange;
            request.slo_class = kRangeSlo;
            request.service_ns = config.range_service_ns;
        }
        sink(std::move(request));
    }
}

sim::Task<>
RunLoadGenerator(sim::Simulator& sim, KvService& service,
                 LoadGenConfig config)
{
    return RunLoadGenerator(
        sim,
        [&service](Request request) { service.Submit(std::move(request)); },
        std::move(config));
}

}  // namespace wave::workload
