/**
 * @file
 * MMIO-backed unidirectional queues (§5.3 of the paper).
 *
 * MMIO queues always live in SmartNIC DRAM — only the NIC exposes its
 * memory over PCIe — regardless of which side produces. The host
 * accesses them through an MMIO mapping with a configurable PTE type
 * (the §5.3.1 optimization axis); NIC agents access them as local
 * memory, either uncacheable (baseline) or write-back (optimized).
 *
 * Two directions, four endpoint classes:
 *
 *   host -> NIC (message queue): HostProducer + NicConsumer
 *   NIC -> host (decision queue): NicProducer + HostConsumer
 *
 * The HostConsumer supports the full §5.3.2/§5.4 toolkit: write-through
 * caching, clflush-based software coherence, and prefetching.
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/layout.h"
#include "pcie/mmio.h"
#include "sim/actor.h"
#include "sim/task.h"

namespace wave::check {
class HbRaceDetector;
class ProtocolChecker;
}

namespace wave::channel {

using Bytes = std::vector<std::byte>;

/** The shared ring storage, placed at an offset inside NIC DRAM. */
class MmioQueue {
  public:
    MmioQueue(pcie::NicDram& dram, std::size_t base_offset,
              const QueueConfig& config)
        : dram_(dram), base_(base_offset), layout_(config)
    {
        WAVE_ASSERT(base_offset + layout_.BytesNeeded() <=
                        dram.Backing().Size(),
                    "queue does not fit in NIC DRAM window");
    }

    pcie::NicDram& Dram() { return dram_; }
    const RingLayout& Layout() const { return layout_; }
    std::size_t Base() const { return base_; }

    std::size_t
    PayloadAddr(std::uint64_t index) const
    {
        return base_ + layout_.PayloadOffset(index);
    }
    std::size_t
    FlagAddr(std::uint64_t index) const
    {
        return base_ + layout_.FlagOffset(index);
    }
    std::size_t
    CounterAddr() const
    {
        return base_ + layout_.ConsumedCounterOffset();
    }

    /** Bytes of the slot array at Base(); the counter line follows. */
    std::size_t
    SlotBytes() const
    {
        return layout_.ConsumedCounterOffset();
    }

    /**
     * Sizes @p hb's state for this ring: one sync slot per ring slot
     * (plus the counter's) and the lines of the slot array. Both
     * endpoints bind; the second call finds the same sizes.
     */
    void RegisterWith(check::HbRaceDetector* hb) const;

  private:
    pcie::NicDram& dram_;
    std::size_t base_;
    RingLayout layout_;
};

/** Host-side producer for a host->NIC message queue. */
class HostProducer {
  public:
    /**
     * @param write_type PTE type for entry stores: kUncacheable
     *        (baseline) or kWriteCombining (§5.3.1 batching).
     * @param counter_read_type PTE type for reading the consumer
     *        counter: kUncacheable or kWriteThrough. A stale cached
     *        counter is conservative (the ring merely looks fuller than
     *        it is), so WT is safe and cheap.
     */
    HostProducer(MmioQueue& queue, pcie::PteType write_type,
                 pcie::PteType counter_read_type);

    /**
     * Enqueues a batch of messages; each must be exactly payload_size
     * bytes. Returns the number actually enqueued (less than the batch
     * size only if the ring filled). One sfence covers the whole batch
     * when write-combining is enabled.
     */
    sim::Task<std::size_t> Send(const std::vector<Bytes>& messages);

    /** Number of entries enqueued over the queue's lifetime. */
    std::uint64_t Enqueued() const { return head_; }

    /** Payload bytes per entry of the underlying ring. */
    std::size_t
    QueuePayloadSize() const
    {
        return queue_.Layout().Config().payload_size;
    }

    const pcie::MmioStats& WriteStats() const { return write_map_.Stats(); }

    /** The underlying ring (e.g. to reach the DRAM's checker). */
    MmioQueue& Queue() { return queue_; }

    /**
     * Attaches the protocol/HB checkers. @p actor identifies this
     * endpoint's execution context; the binding is structural (one
     * actor per endpoint) because the simulator has no ambient
     * "current actor" across coroutine suspensions (see sim/actor.h).
     * Binding also sizes the detector's state for this ring.
     */
    void
    BindCheckers(check::HbRaceDetector* hb,
                 check::ProtocolChecker* protocol, sim::ActorId actor)
    {
        queue_.RegisterWith(hb);
        hb_ = hb;
        protocol_ = protocol;
        actor_ = actor;
    }

    sim::ActorId HbActor() const { return actor_; }

  private:
    /** Refreshes the cached consumed counter over PCIe. */
    sim::Task<> RefreshConsumed();

    MmioQueue& queue_;
    pcie::HostMmioMapping write_map_;
    pcie::HostMmioMapping counter_map_;
    std::uint64_t head_ = 0;           ///< next absolute index to write
    std::uint64_t cached_consumed_ = 0;
    check::HbRaceDetector* hb_ = nullptr;
    check::ProtocolChecker* protocol_ = nullptr;
    sim::ActorId actor_ = sim::kNoActor;
};

/**
 * NIC-side consumer for a host->NIC message queue.
 *
 * A poll has two phases. Ready() reads the next slot's generation flag
 * and yields whether the slot is published; it is a frame-free awaiter,
 * so a poll of an empty ring costs one event and no coroutine frame.
 * Take() then consumes the published slot. PollInto, PollBatch and Poll
 * are built from the two.
 */
class NicConsumer {
  public:
    /** @param local_type kUncacheable (baseline) or kWriteBack. */
    NicConsumer(MmioQueue& queue, pcie::PteType local_type);

    /** Awaiter of Ready(): yields true when the next slot is published. */
    struct [[nodiscard]] ReadyOp {
        NicConsumer& consumer;
        std::uint64_t index;  ///< absolute index of the polled slot
        std::uint64_t flag = 0;
        static_assert(sizeof(flag) == RingLayout::kFlagSize);

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            FlagRead().await_suspend(h);
        }

        bool
        await_resume()
        {
            FlagRead().await_resume();
            return flag == consumer.queue_.Layout().GenerationOf(index);
        }

        /** The read of the slot's flag into this awaiter's flag. */
        pcie::NicLocalMapping::ReadOp
        FlagRead()
        {
            // The flag poll is the sanctioned optimistic read: host
            // stores may still be parked in the WC buffer, in which case
            // the generation simply does not match yet and we retry.
            return consumer.map_.Read(
                consumer.queue_.FlagAddr(index), &flag, sizeof(flag),
                /*tolerate_stale=*/true);  // gen mismatch => retry
        }
    };

    /**
     * Reads the next slot's flag: true when a message is ready to
     * Take(). Bind the result to a local before testing it (see
     * sim/task.h).
     */
    ReadyOp Ready() { return ReadyOp{*this, tail_}; }

    /**
     * Consumes the slot that Ready() found published: resizes @p out to
     * the payload size, reads the payload into it and advances the
     * consumer, syncing the counter every sync_interval entries. A
     * caller that reuses one buffer pays no per-message heap allocation.
     */
    sim::Task<> Take(Bytes& out);

    /** Returns the next message if one is ready; nullopt otherwise. */
    sim::Task<std::optional<Bytes>> Poll();

    /**
     * Allocation-free poll: Ready(), then Take(@p out) if a message is
     * ready — the reusing form of Poll().
     */
    sim::Task<bool> PollInto(Bytes& out);

    /** Drains up to @p max ready messages. */
    sim::Task<std::vector<Bytes>> PollBatch(std::size_t max);

    std::uint64_t Consumed() const { return tail_; }

    /** The underlying ring (e.g. to reach the DRAM's checker). */
    MmioQueue& Queue() { return queue_; }

    /** Attaches the protocol/HB checkers (see HostProducer). */
    void
    BindCheckers(check::HbRaceDetector* hb,
                 check::ProtocolChecker* protocol, sim::ActorId actor)
    {
        queue_.RegisterWith(hb);
        hb_ = hb;
        protocol_ = protocol;
        actor_ = actor;
    }

    sim::ActorId HbActor() const { return actor_; }

  private:
    MmioQueue& queue_;
    pcie::NicLocalMapping map_;
    std::uint64_t tail_ = 0;  ///< next absolute index to read
    std::uint64_t last_synced_ = 0;
    check::HbRaceDetector* hb_ = nullptr;
    check::ProtocolChecker* protocol_ = nullptr;
    sim::ActorId actor_ = sim::kNoActor;
};

/** NIC-side producer for a NIC->host decision queue. */
class NicProducer {
  public:
    NicProducer(MmioQueue& queue, pcie::PteType local_type);

    /** Enqueues one message; false if the ring is full. */
    sim::Task<bool> Send(const Bytes& message);

    /** Enqueues a batch; returns how many fit. */
    sim::Task<std::size_t> SendBatch(const std::vector<Bytes>& messages);

    std::uint64_t Enqueued() const { return head_; }

    /** Payload bytes per entry of the underlying ring. */
    std::size_t
    QueuePayloadSize() const
    {
        return queue_.Layout().Config().payload_size;
    }

    /** True if the ring has no free slot (by local counter read). */
    sim::Task<bool> Full();

    /** The underlying ring (e.g. to reach the DRAM's checker). */
    MmioQueue& Queue() { return queue_; }

    /** Attaches the protocol/HB checkers (see HostProducer). */
    void
    BindCheckers(check::HbRaceDetector* hb,
                 check::ProtocolChecker* protocol, sim::ActorId actor)
    {
        queue_.RegisterWith(hb);
        hb_ = hb;
        protocol_ = protocol;
        actor_ = actor;
    }

    sim::ActorId HbActor() const { return actor_; }

  private:
    MmioQueue& queue_;
    pcie::NicLocalMapping map_;
    std::uint64_t head_ = 0;
    std::uint64_t cached_consumed_ = 0;
    check::HbRaceDetector* hb_ = nullptr;
    check::ProtocolChecker* protocol_ = nullptr;
    sim::ActorId actor_ = sim::kNoActor;
};

/** Host-side consumer for a NIC->host decision queue. */
class HostConsumer {
  public:
    /**
     * @param read_type kUncacheable (baseline) or kWriteThrough
     *        (§5.3.2 caching; requires the software-coherence protocol).
     * @param counter_write_type PTE type for consumer-counter updates.
     */
    HostConsumer(MmioQueue& queue, pcie::PteType read_type,
                 pcie::PteType counter_write_type);

    /**
     * Returns the next message if ready.
     *
     * With a write-through mapping the slot line may be cached stale;
     * callers that *know* new data may have arrived (e.g. on MSI-X
     * receipt) should pass @p flush_first = true, which is the software
     * coherence protocol from §5.3.2.
     */
    sim::Task<std::optional<Bytes>> Poll(bool flush_first);

    /**
     * Allocation-free poll: resizes @p out to the payload size and
     * fills it if a message is ready (see NicConsumer::PollInto).
     */
    sim::Task<bool> PollInto(Bytes& out, bool flush_first);

    /**
     * Prefetches the line(s) of the next slot (§5.4). Call before doing
     * unrelated work; a subsequent Poll() then hits the host cache.
     *
     * The slot's line may still be cached — stale — from the previous
     * ring lap, so this first clflushes it (software coherence) and
     * then starts the fill. The clflush cost is paid here.
     */
    sim::Task<> PrefetchNext();

    /** Flushes the next slot's cached line (software coherence). */
    sim::Task<> FlushNext();

    std::uint64_t Consumed() const { return tail_; }

    /** Payload bytes per entry of the underlying ring. */
    std::size_t
    QueuePayloadSize() const
    {
        return queue_.Layout().Config().payload_size;
    }

    const pcie::MmioStats& ReadStats() const { return read_map_.Stats(); }

    /** The underlying ring (e.g. to reach the DRAM's checker). */
    MmioQueue& Queue() { return queue_; }

    /** Attaches the protocol/HB checkers (see HostProducer). */
    void
    BindCheckers(check::HbRaceDetector* hb,
                 check::ProtocolChecker* protocol, sim::ActorId actor)
    {
        queue_.RegisterWith(hb);
        hb_ = hb;
        protocol_ = protocol;
        actor_ = actor;
    }

    sim::ActorId HbActor() const { return actor_; }

  private:
    sim::Task<> MaybeSyncCounter();

    MmioQueue& queue_;
    pcie::HostMmioMapping read_map_;
    pcie::HostMmioMapping counter_map_;
    std::uint64_t tail_ = 0;
    std::uint64_t last_synced_ = 0;
    check::HbRaceDetector* hb_ = nullptr;
    check::ProtocolChecker* protocol_ = nullptr;
    sim::ActorId actor_ = sim::kNoActor;
};

}  // namespace wave::channel
