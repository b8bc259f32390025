// wave-domain: pcie
// wave-hot
#include "channel/dma_queue.h"

#include <cstring>

#include "check/hooks.h"
#include "check/protocol.h"

namespace wave::channel {

namespace {

/** Per-access cost of local ring memory (0 => free host DRAM). */
// wave-lifetime(caller-awaits)
sim::Task<>
LocalAccess(sim::Simulator& sim, sim::DurationNs per_word_ns, std::size_t n)
{
    if (per_word_ns == 0) co_return;
    const std::size_t words =
        (n + pcie::PcieConfig::kWordSize - 1) / pcie::PcieConfig::kWordSize;
    co_await sim.Delay(per_word_ns * words);
}

}  // namespace

DmaQueue::DmaQueue(sim::Simulator& sim, pcie::DmaEngine& dma,
                   pcie::DmaInitiator initiator, const QueueConfig& config,
                   sim::DurationNs producer_local_ns,
                   sim::DurationNs consumer_local_ns)
    : sim_(sim),
      dma_(dma),
      initiator_(initiator),
      layout_(config),
      producer_local_ns_(producer_local_ns),
      consumer_local_ns_(consumer_local_ns),
      producer_ring_(layout_.BytesNeeded()),
      consumer_ring_(layout_.BytesNeeded())
{
}

// wave-lifetime(caller-awaits)
sim::Task<>
DmaQueue::ShipRange(std::uint64_t from, std::uint64_t to, bool sync)
{
    if (from == to) co_return;
    // Ship contiguous slot runs; a batch that wraps the ring needs two
    // transfers.
    while (from < to) {
        const std::size_t first_slot = layout_.SlotIndex(from);
        const std::uint64_t until_wrap =
            layout_.Config().capacity - first_slot;
        const std::uint64_t run = std::min<std::uint64_t>(to - from,
                                                          until_wrap);
        const std::size_t offset = first_slot * layout_.SlotSize();
        const std::size_t bytes =
            static_cast<std::size_t>(run) * layout_.SlotSize();
        if (sync) {
            co_await dma_.Transfer(initiator_, producer_ring_, offset,
                                   consumer_ring_, offset, bytes);
        } else {
            co_await dma_.TransferAsync(initiator_, producer_ring_, offset,
                                        consumer_ring_, offset, bytes);
        }
        from += run;
    }
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
DmaQueue::Send(const std::vector<Bytes>& messages, bool sync)
{
    const std::size_t capacity = layout_.Config().capacity;
    const std::uint64_t batch_start = head_;

    std::size_t sent = 0;
    for (const Bytes& message : messages) {
        WAVE_ASSERT(message.size() == layout_.Config().payload_size);
        if (head_ - producer_view_of_consumed_ >= capacity) {
            // The consumed counter lives at a fixed offset in the
            // producer ring, DMA'd back by the consumer.
            std::uint64_t counter = 0;
            producer_ring_.ReadRaw(layout_.ConsumedCounterOffset(),
                                   &counter, sizeof(counter));
            producer_view_of_consumed_ = counter;
            if (head_ - producer_view_of_consumed_ >= capacity) break;
        }
        producer_ring_.WriteRaw(layout_.PayloadOffset(head_),
                                message.data(), message.size());
        const std::uint64_t gen = layout_.GenerationOf(head_);
        producer_ring_.WriteRaw(layout_.FlagOffset(head_), &gen,
                                sizeof(gen));
        co_await LocalAccess(sim_, producer_local_ns_,
                             layout_.SlotSize());
        WAVE_CHECK_HOOK({
            if (protocol_ != nullptr) {
                protocol_->OnStreamSend(this, head_, check::Domain::kDma,
                                        "DmaQueue::Send");
            }
        });
        ++head_;
        ++sent;
    }
    co_await ShipRange(batch_start, head_, sync);
    co_return sent;
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
DmaQueue::PollInto(Bytes& out)
{
    std::uint64_t flag = 0;
    consumer_ring_.ReadRaw(layout_.FlagOffset(tail_), &flag, sizeof(flag));
    co_await LocalAccess(sim_, consumer_local_ns_, sizeof(flag));
    if (flag != layout_.GenerationOf(tail_)) {
        co_return false;
    }
    // A reused @p out keeps its capacity, so steady-state polling never
    // touches the allocator.
    out.resize(layout_.Config().payload_size);
    consumer_ring_.ReadRaw(layout_.PayloadOffset(tail_), out.data(),
                           out.size());
    co_await LocalAccess(sim_, consumer_local_ns_, out.size());
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnStreamRecv(this, tail_, check::Domain::kDma,
                                    "DmaQueue::Poll");
        }
    });
    ++tail_;
    co_await MaybeSyncCounter();
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<Bytes>>
DmaQueue::Poll()
{
    // The returned message is caller-owned, so this form pays one
    // buffer per message by contract; PollInto is the reusing form.
    Bytes payload;
    if (!co_await PollInto(payload)) {
        co_return std::nullopt;
    }
    co_return std::move(payload);
}

// wave-lifetime(caller-awaits)
sim::Task<std::vector<Bytes>>
DmaQueue::PollBatch(std::size_t max)
{
    std::vector<Bytes> out;
    out.reserve(max);
    while (out.size() < max) {
        Bytes payload;
        if (!co_await PollInto(payload)) break;
        out.push_back(std::move(payload));
    }
    co_return out;
}

// wave-lifetime(caller-awaits)
sim::Task<>
DmaQueue::MaybeSyncCounter()
{
    if (tail_ - last_synced_ < layout_.Config().sync_interval) {
        co_return;
    }
    last_synced_ = tail_;
    // Write the counter into the consumer ring's counter slot and DMA
    // that line back to the producer ring (reverse direction). Async:
    // flow control tolerates lag.
    consumer_ring_.WriteRaw(layout_.ConsumedCounterOffset(), &tail_,
                            sizeof(tail_));
    co_await dma_.TransferAsync(initiator_, consumer_ring_,
                                layout_.ConsumedCounterOffset(),
                                producer_ring_,
                                layout_.ConsumedCounterOffset(),
                                RingLayout::kFlagSize);
}

}  // namespace wave::channel
