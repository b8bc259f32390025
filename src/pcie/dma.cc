// wave-domain: pcie
// wave-hot
#include "pcie/dma.h"

#include "check/coherence.h"
#include "check/hooks.h"
#include "sim/inject.h"

namespace wave::pcie {

// wave-lifetime(caller-awaits)
sim::Task<std::shared_ptr<DmaCompletion>>
DmaEngine::TransferAsync(DmaInitiator initiator, MemoryRegion& src,
                         std::size_t src_offset, MemoryRegion& dst,
                         std::size_t dst_offset, std::size_t n)
{
    // The host reaches the engine's doorbell over PCIe; the NIC uses
    // local registers.
    if (initiator == DmaInitiator::kHost) {
        co_await sim_.Delay(
            config_.mmio_write_ns * config_.dma_doorbell_writes);
    } else {
        co_await sim_.Delay(config_.nic_wb_access_ns *
                            config_.dma_doorbell_writes);
    }
    auto completion = AcquireCompletion();
    sim_.Spawn(
        RunTransfer(completion, src, src_offset, dst, dst_offset, n));
    co_return completion;
}

std::shared_ptr<DmaCompletion>
DmaEngine::AcquireCompletion()
{
    for (auto& pooled : completion_pool_) {
        if (pooled.use_count() == 1 && pooled->Done()) {
            pooled->Reset();
            return pooled;
        }
    }
    // Pool growth: only while more transfers are outstanding than ever
    // before; steady state always finds a reusable handle above.
    // wave-analyze: allow(W101 pool-growth path; runs only when outstanding transfers exceed the pool high-water mark)
    auto fresh = std::make_shared<DmaCompletion>(sim_);
    // wave-analyze: allow(W101 same pool-growth path as the make_shared above)
    completion_pool_.push_back(fresh);
    return fresh;
}

// wave-lifetime(caller-awaits)
sim::Task<>
DmaEngine::Transfer(DmaInitiator initiator, MemoryRegion& src,
                    std::size_t src_offset, MemoryRegion& dst,
                    std::size_t dst_offset, std::size_t n)
{
    auto completion = co_await TransferAsync(initiator, src, src_offset,
                                             dst, dst_offset, n);
    co_await completion->Wait();
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the DmaEngine is a PcieLink member alive for the whole simulator run, and the transfer descriptor is copied into the frame)
sim::Task<>
DmaEngine::RunTransfer(std::shared_ptr<DmaCompletion> completion,
                       MemoryRegion& src, std::size_t src_offset,
                       MemoryRegion& dst, std::size_t dst_offset,
                       std::size_t n)
{
    co_await channel_.Acquire();
    ++transfers_;
    bytes_moved_ += n;
    sim::DurationNs duration = TransferTime(n);
    if (injector_ != nullptr) {
        duration += injector_->DmaExtraDelay();
    }
    co_await sim_.Delay(duration);
    // Data lands atomically at completion time: the engine writes the
    // destination only after the full burst has crossed PCIe. The
    // staging buffer is safe to share across transfers because the
    // capacity-1 channel serializes this section.
    scratch_.resize(n);
    src.ReadRaw(src_offset, scratch_.data(), n);
    dst.WriteRaw(dst_offset, scratch_.data(), n);
    if (write_observer_) {
        write_observer_(dst, dst_offset, n);
    }
    WAVE_CHECK_HOOK({
        if (checker_ != nullptr) {
            checker_->OnRead(&src, check::Domain::kDma, src_offset, n,
                             /*from_host_cache=*/false,
                             /*tolerate_stale=*/false,
                             "DmaEngine::RunTransfer(src)");
            checker_->OnDmaWrite(&dst, dst_offset, n,
                                 "DmaEngine::RunTransfer(dst)");
            checker_->OnOrderingPoint("dma-completion");
        }
    });
    channel_.Release();
    completion->MarkDone();
}

}  // namespace wave::pcie
