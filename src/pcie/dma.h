/**
 * @file
 * SmartNIC DMA engine model (§5.2).
 *
 * The engine moves data between host DRAM and NIC SoC DRAM without
 * consuming CPU on either side. A transfer costs a fixed setup latency
 * (descriptor fetch + engine scheduling, ~1 µs) plus size / bandwidth,
 * and the engine processes transfers one at a time (a channel), so
 * concurrent requests queue — which is why the paper reserves DMA for
 * high-throughput, latency-insensitive traffic like page-table batches.
 *
 * Kicking the engine from the host costs doorbell MMIO writes; the NIC
 * kicks it through local registers for near-zero cost. Completion can be
 * awaited synchronously or polled asynchronously (iPipe's asynchronous
 * DMA insight, 2-7x better throughput).
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pcie/config.h"
#include "pcie/memory.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace wave::check {
class CoherenceChecker;
}

namespace wave::sim::inject {
class FaultInjector;
}

namespace wave::pcie {

/** Which side initiates (and therefore pays the doorbell for) a DMA. */
enum class DmaInitiator { kHost, kNic };

/** Completion handle for an asynchronous DMA transfer. */
class DmaCompletion {
  public:
    explicit DmaCompletion(sim::Simulator& sim) : done_signal_(sim) {}

    bool Done() const { return done_; }

    /** Suspends until the transfer completes. */
    sim::Task<>
    Wait()
    {
        while (!done_) {
            co_await done_signal_.Wait();
        }
    }

  private:
    friend class DmaEngine;

    void
    MarkDone()
    {
        done_ = true;
        done_signal_.NotifyAll();
    }

    /** Re-arms a drained completion for reuse by the engine's pool. */
    void
    Reset()
    {
        WAVE_ASSERT(done_ && done_signal_.WaiterCount() == 0,
                    "resetting a completion that is still in use");
        done_ = false;
    }

    sim::Signal done_signal_;
    bool done_ = false;
};

/** The SmartNIC's DMA engine: one serialized transfer channel. */
class DmaEngine {
  public:
    DmaEngine(sim::Simulator& sim, const PcieConfig& config)
        : sim_(sim), config_(config), channel_(sim, 1)
    {
    }

    /**
     * Starts an asynchronous copy of @p n bytes from @p src_offset in
     * @p src to @p dst_offset in @p dst.
     *
     * The caller pays only the doorbell cost before this returns; the
     * copy itself proceeds in the background. The returned completion
     * can be awaited or polled.
     */
    sim::Task<std::shared_ptr<DmaCompletion>> TransferAsync(
        DmaInitiator initiator, MemoryRegion& src, std::size_t src_offset,
        MemoryRegion& dst, std::size_t dst_offset, std::size_t n);

    /** Synchronous copy: returns once the data has landed. */
    sim::Task<> Transfer(DmaInitiator initiator, MemoryRegion& src,
                         std::size_t src_offset, MemoryRegion& dst,
                         std::size_t dst_offset, std::size_t n);

    /**
     * Buffer placement: Floem allocates queue memory on the
     * recipient's local NUMA node; a remote-node placement loses
     * 10-20% of effective bandwidth (§5.1). Default is local.
     */
    void SetNumaLocal(bool local) { numa_local_ = local; }

    /** Pure transfer duration for @p n bytes (setup + wire time). */
    sim::DurationNs
    TransferTime(std::size_t n) const
    {
        const double bandwidth =
            config_.dma_bytes_per_ns *
            (numa_local_ ? 1.0 : config_.dma_remote_numa_factor);
        return config_.dma_setup_ns +
               sim::DurationNs::FromDouble(static_cast<double>(n) /
                                           bandwidth);
    }

    std::uint64_t TransfersStarted() const { return transfers_; }
    std::uint64_t BytesMoved() const { return bytes_moved_; }

    /**
     * Observer invoked whenever a transfer lands bytes in a destination
     * region. WaveRuntime wires this to the NIC DRAM's coherence
     * machinery so DMA writes into the MMIO window invalidate (or mark
     * stale) host-cached lines exactly like NIC-core stores do.
     */
    void
    SetWriteObserver(
        // wave-analyze: allow(W101 observer is wired once at runtime construction; invoking the stored callable does not allocate)
        std::function<void(MemoryRegion&, std::size_t, std::size_t)> cb)
    {
        write_observer_ = std::move(cb);
    }

    /** Attaches the wave::check coherence checker (may be nullptr). */
    void AttachChecker(check::CoherenceChecker* checker)
    {
        checker_ = checker;
    }

    /**
     * Attaches the fault injector; transfers then pay its extra
     * completion delay while a dma-delay window is active. The data
     * still lands atomically at (delayed) completion time, so delayed
     * completions naturally reorder against younger MMIO traffic —
     * exactly the hazard the checkers must tolerate or flag.
     */
    void SetFaultInjector(sim::inject::FaultInjector* injector)
    {
        injector_ = injector;
    }

  private:
    sim::Task<> RunTransfer(std::shared_ptr<DmaCompletion> completion,
                            MemoryRegion& src, std::size_t src_offset,
                            MemoryRegion& dst, std::size_t dst_offset,
                            std::size_t n);

    /**
     * Hands out a completion handle, reusing a pooled one whose caller
     * has dropped their reference (use_count == 1) and whose transfer
     * finished. The pool levels off at the maximum number of
     * concurrently outstanding transfers, so steady-state TransferAsync
     * does not allocate.
     */
    std::shared_ptr<DmaCompletion> AcquireCompletion();

    sim::Simulator& sim_;
    PcieConfig config_;
    sim::Resource channel_;
    std::vector<std::shared_ptr<DmaCompletion>> completion_pool_;

    /**
     * Copy staging buffer. The capacity-1 channel_ serializes the copy
     * section of RunTransfer, so one buffer (grown to the largest
     * transfer seen) serves every transfer without re-allocating.
     */
    std::vector<std::byte> scratch_;
    // wave-analyze: allow(W101 member storage for the setup-time observer; assigned once, never rebound per event)
    std::function<void(MemoryRegion&, std::size_t, std::size_t)>
        write_observer_;
    check::CoherenceChecker* checker_ = nullptr;
    sim::inject::FaultInjector* injector_ = nullptr;
    bool numa_local_ = true;
    std::uint64_t transfers_ = 0;
    std::uint64_t bytes_moved_ = 0;
};

}  // namespace wave::pcie
