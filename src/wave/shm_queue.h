/**
 * @file
 * Coherent shared-memory queue — the on-host baseline transport.
 *
 * ghOSt, Snap, and the other userspace resource-management systems in
 * §2.3 communicate over cache-coherent shared memory. This queue models
 * that path: entries move through host DRAM with cross-core cache-miss
 * costs (tens of ns), not PCIe costs. The apples-to-apples experiments
 * in §7 compare system software running over this queue (on-host)
 * against the same software over Wave's PCIe queues (offloaded).
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "check/hooks.h"
#include "check/stream_end.h"
#include "sim/actor.h"
#include "sim/fifo_ring.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace wave {

/** Cross-core shared-memory access costs. */
struct ShmCosts {
    /** Producer: write one entry + its flag (stores into own L1/L2). */
    sim::DurationNs write_entry_ns = 30;

    /** Consumer: read one entry across the LLC (typically a C2C miss). */
    sim::DurationNs read_entry_ns = 45;

    /** Consumer: poll an empty flag (also a coherence miss, often). */
    sim::DurationNs empty_poll_ns = 25;
};

/**
 * Bounded SPSC queue over coherent host shared memory.
 *
 * A poll has two phases, as on NicConsumer: Ready() tests for a queued
 * entry, paying the empty-flag miss only when there is none, and Take()
 * reads the entry across the LLC. Poll() is built from the two.
 */
class ShmQueue {
  public:
    /** @param payload_size bytes in every entry. */
    ShmQueue(sim::Simulator& sim, std::size_t capacity,
             std::size_t payload_size)
        : sim_(sim), capacity_(capacity), payload_size_(payload_size),
          items_(capacity),
          producer_(check::Domain::kHost, "ShmQueue::Send", "ShmQueue::Send"),
          consumer_(check::Domain::kHost, "ShmQueue::Poll", "ShmQueue::Poll")
    {
    }

    /** Enqueues a batch; returns how many fit. */
    // wave-lifetime(caller-awaits)
    sim::Task<std::size_t>
    Send(const std::vector<std::vector<std::byte>>& messages)
    {
        std::size_t sent = 0;
        for (const auto& message : messages) {
            WAVE_ASSERT(message.size() == payload_size_,
                        "message size %zu != payload size %zu",
                        message.size(), payload_size_);
            if (items_.Size() >= capacity_) break;
            co_await sim_.Delay(kCosts.write_entry_ns);
            // Each slot is one shadow line. The fullness check above
            // read the consumer's progress: the acquire that orders
            // reusing a slot after its last read. The push publishes.
            WAVE_CHECK_HOOK({
                producer_.CounterObserved();
                producer_.SlotPublished(sent_, SlotOffset(sent_), kSlotLine);
            });
            items_.PushBack(message);
            ++sent_;
            ++sent;
        }
        co_return sent;
    }

    /** Awaiter of Ready(): yields true when an entry is queued. */
    struct [[nodiscard]] ReadyOp {
        ShmQueue& queue;
        bool ready = false;

        bool
        await_ready()
        {
            ready = !queue.items_.Empty();
            return ready;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            queue.sim_.Delay(kCosts.empty_poll_ns).await_suspend(h);
        }

        bool await_resume() const { return ready; }
    };

    /**
     * Tests for a queued entry: free when there is one, one empty-flag
     * miss when there is none. Bind the result to a local before
     * testing it (see sim/task.h).
     */
    ReadyOp Ready() { return ReadyOp{*this}; }

    /** Dequeues the entry Ready() found into @p out. */
    // wave-lifetime(caller-awaits)
    sim::Task<>
    Take(std::vector<std::byte>& out)
    {
        co_await sim_.Delay(kCosts.read_entry_ns);
        out = items_.PopFront();
        // The pop also publishes the consumer's progress (the counter
        // the producer's fullness check acquires).
        WAVE_CHECK_HOOK({
            consumer_.SlotConsumed(received_, SlotOffset(received_),
                                   kSlotLine);
            consumer_.CounterPublished();
        });
        ++received_;
    }

    /** Dequeues the next entry if present. */
    sim::Task<std::optional<std::vector<std::byte>>>
    Poll()
    {
        const bool ready = co_await Ready();
        if (!ready) co_return std::nullopt;
        std::vector<std::byte> out;
        co_await Take(out);
        co_return out;
    }

    /**
     * No-op: hardware prefetchers already serve coherent memory, so the
     * explicit PCIe prefetch (HostConsumer::PrefetchNext) has no
     * analogue here.
     */
    sim::Task<> PrefetchNext() { co_return; }

    /** Bytes in every entry. */
    std::size_t QueuePayloadSize() const { return payload_size_; }

    std::size_t Size() const { return items_.Size(); }

    /**
     * Attaches the protocol/HB checkers; the coherence checker has
     * nothing to watch here, since host shared memory is hardware-
     * coherent. The queue is SPSC by design; each side is bound to one
     * actor. Callers with several producing contexts serialized by a
     * lock bind them as one actor (a documented over-approximation,
     * see docs/checker.md). Binding sizes the detector's state for
     * this ring's capacity.
     */
    void
    BindCheckers([[maybe_unused]] check::HbRaceDetector* hb,
                 [[maybe_unused]] check::ProtocolChecker* protocol,
                 [[maybe_unused]] sim::ActorId producer_actor,
                 [[maybe_unused]] sim::ActorId consumer_actor)
    {
        WAVE_CHECK_HOOK({
            const std::size_t bytes = capacity_ * kSlotLine;
            producer_.BindRing(hb, protocol, producer_actor, this,
                               capacity_, 0, bytes);
            consumer_.BindRing(hb, protocol, consumer_actor, this,
                               capacity_, 0, bytes);
        });
    }

    /** Entries enqueued / dequeued over the queue's lifetime. */
    std::uint64_t Enqueued() const { return sent_; }
    std::uint64_t Consumed() const { return received_; }

  private:
    /** Bytes of the shadow line each slot is. */
    static constexpr std::size_t kSlotLine = check::HbRaceDetector::kLineSize;

    /** The shadow line of the slot entry @p seq occupies. */
    std::size_t
    SlotOffset(std::uint64_t seq) const
    {
        return static_cast<std::size_t>(seq % capacity_) * kSlotLine;
    }

    /** Every queue pays the default shared-memory costs. */
    static constexpr ShmCosts kCosts{};

    sim::Simulator& sim_;
    std::size_t capacity_;
    std::size_t payload_size_;
    sim::FifoRing<std::vector<std::byte>> items_;
    std::uint64_t sent_ = 0;      ///< absolute seqnum of next enqueue
    std::uint64_t received_ = 0;  ///< absolute seqnum of next dequeue
    check::StreamEnd producer_;
    check::StreamEnd consumer_;
};

}  // namespace wave
