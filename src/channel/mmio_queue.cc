// wave-domain: pcie
// wave-hot
#include "channel/mmio_queue.h"

#include <cstring>

#include "check/hooks.h"

namespace wave::channel {

namespace {

std::uint64_t
FromFlagBytes(const std::byte* data)
{
    std::uint64_t v;
    std::memcpy(&v, data, sizeof(v));
    return v;
}

}  // namespace

void
MmioEndpoint::BindCheckers([[maybe_unused]] check::HbRaceDetector* hb,
                           [[maybe_unused]] check::ProtocolChecker* protocol,
                           [[maybe_unused]] sim::ActorId actor)
{
    WAVE_CHECK_HOOK(end_.BindRing(hb, protocol, actor, &queue_,
                                  queue_.Layout().Config().capacity,
                                  queue_.Base(), queue_.SlotBytes()));
}

// --- HostProducer ---

HostProducer::HostProducer(MmioQueue& queue, pcie::PteType write_type,
                           pcie::PteType counter_read_type)
    : MmioEndpoint(queue, check::Domain::kHost,
                   "HostProducer::Send[payload]", "HostProducer::Send"),
      write_map_(queue.Dram(), write_type, queue.Base(), queue.SlotBytes()),
      counter_map_(queue.Dram(), counter_read_type, queue.CounterAddr(),
                   RingLayout::kFlagSize)
{
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostProducer::RefreshConsumed()
{
    // A stale cached counter only under-reports progress, so flushing
    // before the read is needed only when we actually must see newer
    // data — which is exactly when this is called.
    co_await counter_map_.Clflush(queue_.CounterAddr(),
                                  RingLayout::kFlagSize);
    std::uint64_t counter = 0;
    co_await counter_map_.Read(queue_.CounterAddr(), &counter,
                               sizeof(counter));
    cached_consumed_ = counter;
    // Observing the consumer's counter is the acquire half of the lap
    // handshake: it is what licenses overwriting consumed slots.
    WAVE_CHECK_HOOK(end_.CounterObserved());
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
HostProducer::Send(const std::vector<Bytes>& messages)
{
    const auto& layout = queue_.Layout();
    const std::size_t capacity = layout.Config().capacity;
    std::size_t sent = 0;

    for (const Bytes& message : messages) {
        WAVE_ASSERT(message.size() == layout.Config().payload_size,
                    "message size %zu != payload size %zu", message.size(),
                    layout.Config().payload_size);
        if (head_ - cached_consumed_ >= capacity) {
            co_await RefreshConsumed();
            if (head_ - cached_consumed_ >= capacity) {
                break;  // genuinely full
            }
        }
        // Payload first, then the generation flag; posted-write ordering
        // guarantees the consumer never sees a flag without its payload.
        co_await write_map_.Write(queue_.PayloadAddr(head_),
                                  message.data(), message.size());
        const std::uint64_t gen = layout.GenerationOf(head_);
        co_await write_map_.Write(queue_.FlagAddr(head_), &gen,
                                  sizeof(gen));
        // The flag store publishes the slot (the flag bytes themselves
        // are never treated as data).
        WAVE_CHECK_HOOK(end_.SlotPublished(
            head_, queue_.PayloadAddr(head_), message.size()));
        ++head_;
        ++sent;
    }
    // One fence drains the whole batch (WC batching, §5.3.1). A no-op
    // for uncacheable mappings.
    co_await write_map_.Sfence();
    co_return sent;
}

// --- NicConsumer ---

NicConsumer::NicConsumer(MmioQueue& queue, pcie::PteType local_type)
    : MmioEndpoint(queue, check::Domain::kNic,
                   "NicConsumer::Poll[payload]", "NicConsumer::Poll"),
      map_(queue.Dram(), local_type)
{
}

// wave-lifetime(caller-awaits)
sim::Task<>
NicConsumer::Take(Bytes& out)
{
    // Once the flag matched, the payload must have drained too (it is
    // written before the flag and fenced by the same sfence), so this
    // read is checked strictly. A reused @p out keeps its capacity, so
    // steady-state polling never touches the allocator.
    out.resize(queue_.Layout().Config().payload_size);
    co_await map_.Read(queue_.PayloadAddr(tail_), out.data(), out.size());
    // The matching flag poll is the acquire half of the publication
    // handshake.
    WAVE_CHECK_HOOK(
        end_.SlotConsumed(tail_, queue_.PayloadAddr(tail_), out.size()));
    ++tail_;
    if (tail_ - last_synced_ >= queue_.Layout().Config().sync_interval) {
        co_await map_.Write(queue_.CounterAddr(), &tail_, sizeof(tail_));
        // Publishing the counter releases every slot read so far: the
        // producer may overwrite them only after acquiring this value.
        WAVE_CHECK_HOOK(end_.CounterPublished());
        last_synced_ = tail_;
    }
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
NicConsumer::PollInto(Bytes& out)
{
    const bool ready = co_await Ready();
    if (!ready) co_return false;
    co_await Take(out);
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<Bytes>>
NicConsumer::Poll()
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
NicConsumer::PollBatch(std::size_t max)
{
    // Left unreserved so that an empty poll, the common case of an agent
    // pass, returns without touching the allocator.
    std::vector<Bytes> out;
    while (out.size() < max) {
        const bool ready = co_await Ready();
        if (!ready) break;
        Bytes payload;
        co_await Take(payload);
        out.push_back(std::move(payload));
    }
    co_return out;
}

// --- NicProducer ---

NicProducer::NicProducer(MmioQueue& queue, pcie::PteType local_type)
    : MmioEndpoint(queue, check::Domain::kNic,
                   "NicProducer::Send[payload]", "NicProducer::Send"),
      map_(queue.Dram(), local_type)
{
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
NicProducer::Full()
{
    const std::size_t capacity = queue_.Layout().Config().capacity;
    if (head_ - cached_consumed_ < capacity) {
        co_return false;
    }
    // A stale counter only under-reports consumption (the ring looks
    // fuller than it is), which is conservative and safe.
    std::uint64_t counter = 0;
    co_await map_.Read(queue_.CounterAddr(), &counter, sizeof(counter),
                       /*tolerate_stale=*/true);  // stale => looks full
    cached_consumed_ = counter;
    WAVE_CHECK_HOOK(end_.CounterObserved());
    co_return head_ - cached_consumed_ >= capacity;
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
NicProducer::Send(const Bytes& message)
{
    const auto& layout = queue_.Layout();
    WAVE_ASSERT(message.size() == layout.Config().payload_size);
    if (co_await Full()) {
        co_return false;
    }
    co_await map_.Write(queue_.PayloadAddr(head_), message.data(),
                        message.size());
    const std::uint64_t gen = layout.GenerationOf(head_);
    co_await map_.Write(queue_.FlagAddr(head_), &gen, sizeof(gen));
    WAVE_CHECK_HOOK(end_.SlotPublished(head_, queue_.PayloadAddr(head_),
                                       message.size()));
    ++head_;
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::size_t>
NicProducer::SendBatch(const std::vector<Bytes>& messages)
{
    std::size_t sent = 0;
    for (const Bytes& message : messages) {
        if (!co_await Send(message)) break;
        ++sent;
    }
    co_return sent;
}

// --- HostConsumer ---

HostConsumer::HostConsumer(MmioQueue& queue, pcie::PteType read_type,
                           pcie::PteType counter_write_type)
    : MmioEndpoint(queue, check::Domain::kHost,
                   "HostConsumer::Poll[payload]", "HostConsumer::Poll"),
      read_map_(queue.Dram(), read_type, queue.Base(), queue.SlotBytes()),
      counter_map_(queue.Dram(), counter_write_type, queue.CounterAddr(),
                   RingLayout::kFlagSize)
{
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostConsumer::MaybeSyncCounter()
{
    if (tail_ - last_synced_ >= queue_.Layout().Config().sync_interval) {
        co_await counter_map_.Write(queue_.CounterAddr(), &tail_,
                                    sizeof(tail_));
        co_await counter_map_.Sfence();
        WAVE_CHECK_HOOK(end_.CounterPublished());
        last_synced_ = tail_;
    }
}

// wave-lifetime(caller-awaits)
sim::Task<bool>
HostConsumer::PollInto(Bytes& out, bool flush_first)
{
    if (flush_first) {
        co_await FlushNext();
    }
    const auto& layout = queue_.Layout();
    // Slots are line-aligned with the flag adjacent to the payload, so
    // with a WT mapping this single read pulls flag + payload in one
    // PCIe roundtrip (or hits the cache if prefetched). Without an
    // explicit flush this is the sanctioned optimistic poll: a stale
    // cached slot fails the generation check and we retry after the
    // next flush point, so the checker must not flag it. A reused
    // @p out keeps its capacity across polls, so neither resize here
    // allocates in steady state.
    out.resize(layout.Config().payload_size + RingLayout::kFlagSize);
    co_await read_map_.Read(queue_.PayloadAddr(tail_), out.data(),
                            out.size(),
                            /*tolerate_stale=*/!flush_first);  // gen-checked
    const std::uint64_t flag =
        FromFlagBytes(out.data() + layout.Config().payload_size);
    if (flag != layout.GenerationOf(tail_)) {
        co_return false;
    }
    WAVE_CHECK_HOOK(end_.SlotConsumed(tail_, queue_.PayloadAddr(tail_),
                                      layout.Config().payload_size));
    out.resize(layout.Config().payload_size);
    ++tail_;
    co_await MaybeSyncCounter();
    co_return true;
}

// wave-lifetime(caller-awaits)
sim::Task<std::optional<Bytes>>
HostConsumer::Poll(bool flush_first)
{
    // The returned message is caller-owned, so this form pays one
    // buffer per message by contract; PollInto is the reusing form.
    Bytes slot;
    if (!co_await PollInto(slot, flush_first)) {
        co_return std::nullopt;
    }
    co_return std::move(slot);
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostConsumer::PrefetchNext()
{
    // Drop any stale copy from the previous lap, then start the fill.
    co_await FlushNext();
    read_map_.Prefetch(queue_.PayloadAddr(tail_),
                       queue_.Layout().Config().payload_size +
                           RingLayout::kFlagSize);
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostConsumer::FlushNext()
{
    co_await read_map_.Clflush(queue_.PayloadAddr(tail_),
                               queue_.Layout().Config().payload_size +
                                   RingLayout::kFlagSize);
}

}  // namespace wave::channel
