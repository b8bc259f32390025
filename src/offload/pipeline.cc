// wave-domain: neutral
#include "offload/pipeline.h"

#include "sim/logging.h"

namespace wave::offload {

namespace {

/** Max packets a worker processes per wakeup. */
constexpr std::size_t kBatch = 16;

/** Poll period when a worker finds its ring empty. */
constexpr sim::DurationNs kIdlePollNs = 500;

}  // namespace

OffloadPipeline::OffloadPipeline(sim::Simulator& sim,
                                 const PipelineConfig& config)
    : sim_(sim), config_(config), chain_(config.chain)
{
    WAVE_ASSERT(config_.pool_size > 0);
    pool_.resize(config_.pool_size);
    free_.Reserve(config_.pool_size);
    for (std::size_t i = 0; i < config_.pool_size; ++i) {
        free_.PushBack(static_cast<std::uint32_t>(i));
    }
}

void
OffloadPipeline::AddWorker(machine::Cpu& cpu)
{
    WAVE_ASSERT(!started_, "AddWorker after Start");
    workers_.push_back(&cpu);
}

void
OffloadPipeline::Start()
{
    WAVE_ASSERT(!started_, "pipeline started twice");
    started_ = true;
    running_ = true;

    // Build segments: one for run-to-completion, else one contiguous
    // chunk per worker (never more segments than stages, sizes within
    // one of each other).
    const std::size_t stages = chain_.NumStages();
    std::size_t nseg = 1;
    if (config_.placement == Placement::kPipelined && !workers_.empty()) {
        nseg = workers_.size() < stages ? workers_.size() : stages;
    }
    segments_.clear();
    const std::size_t base = stages / nseg;
    const std::size_t rem = stages % nseg;
    std::size_t at = 0;
    for (std::size_t s = 0; s < nseg; ++s) {
        const std::size_t size = base + (s < rem ? 1 : 0);
        segments_.push_back(Segment{at, at + size});
        at += size;
    }
    rings_.resize(nseg);
    for (auto& ring : rings_) ring.Reserve(config_.pool_size);

    for (std::size_t w = 0; w < workers_.size(); ++w) {
        sim_.Spawn(RunWorker(*workers_[w], w % nseg));
    }
}

// wave-hot: begin
bool
OffloadPipeline::Inject(const PacketDesc& desc)
{
    WAVE_ASSERT(started_, "Inject before Start");
    if (free_.Empty()) {
        ++stats_.dropped;  // RX queue overrun: the NIC tail-drops
        return false;
    }
    const std::uint32_t idx = free_.PopFront();
    Packet& p = pool_[idx];
    p.id = next_id_++;
    p.tuple = desc.tuple;
    p.arrival = sim_.Now();
    p.acl_allowed = 1;
    p.http_ok = 0;
    p.backend = 0;
    p.scan_hits = 0;
    p.digest = 0;

    std::size_t len = desc.payload_len < kMaxPayloadBytes
                          ? desc.payload_len
                          : kMaxPayloadBytes;
    if (desc.http) {
        const std::size_t header = RenderHttpGet(
            desc.http_key, p.payload.data(), kMaxPayloadBytes);
        if (len < header) len = header;
        if (len > header) {
            FillRandomBytes(desc.payload_seed, p.payload.data() + header,
                            len - header);
        }
    } else {
        FillRandomBytes(desc.payload_seed, p.payload.data(), len);
    }
    p.payload_len = static_cast<std::uint32_t>(len);

    rings_[0].PushBack(idx);  // ring capacity == pool size: never grows
    ++stats_.injected;
    return true;
}

sim::DurationNs
OffloadPipeline::StepPacket(std::uint32_t idx, std::size_t segment,
                            bool* alive)
{
    const Segment& seg = segments_[segment];
    return chain_.ProcessRange(pool_[idx], seg.stage_begin, seg.stage_end,
                               alive);
}

void
OffloadPipeline::Route(std::uint32_t idx, std::size_t segment, bool alive)
{
    if (!alive) {
        Retire(idx, /*completed=*/false);
    } else if (segment + 1 < segments_.size()) {
        rings_[segment + 1].PushBack(idx);
    } else {
        Retire(idx, /*completed=*/true);
    }
}

void
OffloadPipeline::Retire(std::uint32_t idx, bool completed)
{
    const Packet& p = pool_[idx];
    if (completed) {
        ++stats_.completed;
        if (p.arrival >= window_begin_ && p.arrival < window_end_) {
            latency_.Record((sim_.Now() - p.arrival).ns());
        }
    } else {
        ++stats_.denied;
    }
    free_.PushBack(idx);
}
// wave-hot: end

// wave-lifetime(spawn-safe: the pipeline and its worker Cpus are owned by the experiment/test frame, which drives the simulator to completion before destroying either)
sim::Task<>
OffloadPipeline::RunWorker(machine::Cpu& cpu, std::size_t segment)
{
    while (running_) {
        std::size_t n = 0;
        while (n < kBatch && !rings_[segment].Empty()) {
            const std::uint32_t idx = rings_[segment].PopFront();
            bool alive = true;
            const sim::DurationNs cost = StepPacket(idx, segment, &alive);
            co_await cpu.Work(cost);
            Route(idx, segment, alive);
            ++n;
        }
        if (n == 0) {
            co_await sim_.Delay(kIdlePollNs);
        }
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
OffloadPipeline::RunColocatedSlice(machine::Cpu& cpu, std::size_t budget)
{
    if (!started_) co_return;
    std::size_t n = 0;
    while (n < budget && !rings_[0].Empty()) {
        const std::uint32_t idx = rings_[0].PopFront();
        bool alive = true;
        const sim::DurationNs cost = StepPacket(idx, 0, &alive);
        co_await cpu.Work(cost);
        Route(idx, 0, alive);
        ++n;
    }
}

}  // namespace wave::offload
