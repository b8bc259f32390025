/**
 * @file
 * The offload datapath pipeline: stage execution on machine::Cpu NIC
 * cores (wave::offload).
 *
 * Ingress materializes packets into a fixed pool (inline payloads, a
 * FifoRing free list — pool exhaustion models RX-queue drop and keeps
 * the steady state allocation-free). Worker coroutines on NIC cores
 * pull packet indices from segment rings, run their stage segment via
 * StageChain, pay the calibrated cost on their Cpu, and hand off to the
 * next segment ring or retire the packet (latency histogram + free
 * list).
 *
 * Two placements:
 *  - kRunToCompletion (default): one segment; every worker runs the
 *    full chain per packet (Meili-style consolidation).
 *  - kPipelined: the chain splits into one contiguous segment per
 *    worker; packets flow worker 0 → 1 → ... (classic stage-per-core).
 *
 * The scheduling agent participates through RunColocatedSlice(): a
 * bounded batch of first-segment work per agent iteration on the
 * agent's own core — the "datapath shares the agent's core" half of
 * the contention sweep, with the budget (and a run-queue backpressure
 * check in the sweep harness) expressing agent priority over stage
 * work.
 */
// wave-domain: neutral
#pragma once

#include <cstdint>
#include <vector>

#include "machine/cpu.h"
#include "offload/stage.h"
#include "sim/fifo_ring.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "stats/histogram.h"

namespace wave::offload {

enum class Placement : std::uint8_t {
    kRunToCompletion,  ///< every worker runs the full chain
    kPipelined,        ///< one contiguous chain segment per worker
};

struct PipelineConfig {
    StageChainConfig chain;
    Placement placement = Placement::kRunToCompletion;

    /** Packet pool size; also every segment ring's capacity. */
    std::size_t pool_size = 4096;
};

/** Aggregate pipeline counters. */
struct PipelineStats {
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;  ///< retired after the full chain
    std::uint64_t denied = 0;     ///< terminated by the firewall
    std::uint64_t dropped = 0;    ///< pool full at ingress (RX drop)
};

/** The datapath pipeline; owns packets, rings, and worker tasks. */
class OffloadPipeline {
  public:
    OffloadPipeline(sim::Simulator& sim, const PipelineConfig& config);

    OffloadPipeline(const OffloadPipeline&) = delete;
    OffloadPipeline& operator=(const OffloadPipeline&) = delete;

    /**
     * Registers @p cpu as a worker. Call before Start(); workers map
     * to chain segments per the configured placement.
     */
    void AddWorker(machine::Cpu& cpu);

    /** Spawns the worker loops. Idempotent per worker set. */
    void Start();

    /** Workers exit at their next wakeup; ingress still accepted. */
    void RequestStop() { running_ = false; }

    /**
     * Materializes one packet and enqueues it on the first segment
     * ring. Returns false — counting an RX drop — when the pool is
     * exhausted.
     */
    bool Inject(const PacketDesc& desc);

    /**
     * Processes up to @p budget packets of first-segment work on
     * @p cpu (the agent-co-location entry point; see file comment).
     */
    sim::Task<> RunColocatedSlice(machine::Cpu& cpu, std::size_t budget);

    /** Packet latencies are recorded only for arrivals in [b, e). */
    void
    SetMeasureWindow(sim::TimeNs begin, sim::TimeNs end)
    {
        window_begin_ = begin;
        window_end_ = end;
    }

    /** Ingress→retire latency of completed packets in the window. */
    const stats::Histogram& Latency() const { return latency_; }

    const PipelineStats& Stats() const { return stats_; }
    const StageChain& Chain() const { return chain_; }

    /** Packets currently in flight (injected, not yet retired). */
    std::size_t
    Pending() const
    {
        return static_cast<std::size_t>(stats_.injected - stats_.completed -
                                        stats_.denied);
    }

    std::size_t NumSegments() const { return segments_.size(); }

  private:
    struct Segment {
        std::size_t stage_begin;
        std::size_t stage_end;
    };

    /** Long-lived per-core worker loop (spawned by Start()). */
    sim::Task<> RunWorker(machine::Cpu& cpu, std::size_t segment);

    /**
     * Runs segment @p segment's stages on the packet at pool index
     * @p idx (functional mutation only — the caller pays the returned
     * reference-ns cost on its Cpu before routing).
     */
    sim::DurationNs StepPacket(std::uint32_t idx, std::size_t segment,
                               bool* alive);

    /** Hands the packet to the next segment ring or retires it. */
    void Route(std::uint32_t idx, std::size_t segment, bool alive);

    void Retire(std::uint32_t idx, bool completed);

    sim::Simulator& sim_;
    PipelineConfig config_;
    StageChain chain_;

    std::vector<Packet> pool_;
    sim::FifoRing<std::uint32_t> free_;
    std::vector<sim::FifoRing<std::uint32_t>> rings_;  ///< per segment
    std::vector<Segment> segments_;
    std::vector<machine::Cpu*> workers_;

    stats::Histogram latency_;
    PipelineStats stats_;
    sim::TimeNs window_begin_{};
    sim::TimeNs window_end_{};
    std::uint64_t next_id_ = 1;
    bool running_ = false;
    bool started_ = false;
};

}  // namespace wave::offload
