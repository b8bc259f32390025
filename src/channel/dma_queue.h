/**
 * @file
 * DMA-backed unidirectional queue (the Floem queue Wave re-uses, §5.3).
 *
 * The producer writes entries into a local ring at memory speed, then
 * kicks the SmartNIC DMA engine to copy the touched slots into the
 * consumer's replica ring. The consumer polls its local replica for
 * valid generation flags — it never touches PCIe. Flow control uses the
 * same lazy consumed-counter scheme as the MMIO queues, with the counter
 * DMA'd back to the producer.
 *
 * This is the right transport for high-throughput, latency-tolerant
 * traffic (1+ Gbps of page-table entries in §4.2): per-entry cost
 * amortizes to bytes/bandwidth, but every transfer pays ~1 µs of engine
 * setup, which is why µs-scale software uses MMIO queues instead.
 *
 * Transfers can be synchronous (producer blocks until the batch lands)
 * or asynchronous (producer continues; iPipe reports 2-7x throughput
 * gains from async DMA, which bench_queue_primitives reproduces).
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/layout.h"
#include "check/stream_end.h"
#include "pcie/dma.h"
#include "pcie/memory.h"
#include "sim/task.h"

namespace wave::channel {

using Bytes = std::vector<std::byte>;

/** A unidirectional DMA queue between two memory regions. */
class DmaQueue {
  public:
    /**
     * @param initiator which side kicks the DMA engine (pays doorbell).
     * @param producer_local_ns per-word cost of producer local access
     *        (0 for host DRAM, NIC WB cost for agents).
     */
    DmaQueue(sim::Simulator& sim, pcie::DmaEngine& dma,
             pcie::DmaInitiator initiator, const QueueConfig& config,
             sim::DurationNs producer_local_ns = 0,
             sim::DurationNs consumer_local_ns = 0);

    /**
     * Producer: enqueues a batch and DMAs it to the consumer replica.
     *
     * @param sync if true, waits for the DMA to land before returning;
     *        otherwise returns after the doorbell (async mode).
     * @return number of messages enqueued (< batch size if full).
     */
    sim::Task<std::size_t> Send(const std::vector<Bytes>& messages,
                                bool sync);

    /** Consumer: next message from the local replica, if ready. */
    sim::Task<std::optional<Bytes>> Poll();

    /**
     * Allocation-free poll: resizes @p out to the payload size and
     * fills it if a message is ready. A caller that reuses one buffer
     * across polls pays no per-message heap allocation — the hot-loop
     * form of Poll().
     */
    sim::Task<bool> PollInto(Bytes& out);

    /** Consumer: drains up to @p max ready messages. */
    sim::Task<std::vector<Bytes>> PollBatch(std::size_t max);

    std::uint64_t Enqueued() const { return head_; }
    std::uint64_t Consumed() const { return tail_; }

    /**
     * Attaches the protocol verifier for seqnum-stream checking. The
     * HB detector is not wired here: async DMA landing times live in
     * the engine, so a sound release point would need completion
     * callbacks (see docs/checker.md).
     */
    void AttachProtocol(check::ProtocolChecker* protocol);

  private:
    /** DMAs the slot range [from, to) from producer to consumer ring. */
    sim::Task<> ShipRange(std::uint64_t from, std::uint64_t to, bool sync);

    sim::Task<> MaybeSyncCounter();

    sim::Simulator& sim_;
    pcie::DmaEngine& dma_;
    pcie::DmaInitiator initiator_;
    RingLayout layout_;
    sim::DurationNs producer_local_ns_;
    sim::DurationNs consumer_local_ns_;

    pcie::MemoryRegion producer_ring_;
    pcie::MemoryRegion consumer_ring_;

    std::uint64_t head_ = 0;            ///< producer: next index to write
    std::uint64_t tail_ = 0;            ///< consumer: next index to read
    std::uint64_t last_synced_ = 0;     ///< consumer: last advertised tail
    std::uint64_t producer_view_of_consumed_ = 0;
    check::StreamEnd producer_;
    check::StreamEnd consumer_;
};

}  // namespace wave::channel
