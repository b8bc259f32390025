// wave-domain: pcie
// wave-hot
#include "pcie/mmio.h"

#include <algorithm>
#include <cstring>

#include "check/coherence.h"
#include "check/hooks.h"
#include "sim/inject.h"

namespace wave::pcie {

namespace {

/** Clamps the accessed range to one line for per-line checker reports. */
struct LineSpan {
    std::size_t offset;
    std::size_t size;
};

LineSpan
ClampToLine(std::size_t line, std::size_t offset, std::size_t n)
{
    const std::size_t lo =
        std::max(offset, line * PcieConfig::kLineSize);
    const std::size_t hi =
        std::min(offset + n, (line + 1) * PcieConfig::kLineSize);
    return LineSpan{lo, hi - lo};
}

}  // namespace

void
NicDram::RegisterHostMapping(HostMmioMapping* mapping)
{
    // wave-analyze: allow(W101 mapping registration happens once per mapping at setup, never per access)
    host_mappings_.push_back(mapping);
}

void
NicDram::OnNicWrite(std::size_t offset, std::size_t n)
{
    for (HostMmioMapping* mapping : host_mappings_) {
        // A mapping caches only lines of its own window.
        if (!mapping->CachesAny(offset, n)) continue;
        if (config_.coherent) {
            mapping->InvalidateLines(offset, n);
        } else {
            mapping->MarkNicDirtied(offset, n);
        }
    }
}

HostMmioMapping::HostMmioMapping(NicDram& dram, PteType type)
    : HostMmioMapping(dram, type, 0, dram.Backing().Size())
{
}

HostMmioMapping::HostMmioMapping(NicDram& dram, PteType type,
                                 std::size_t offset, std::size_t n)
    : dram_(dram),
      config_(dram.Config()),
      type_(type),
      window_begin_(offset),
      window_end_(offset + n),
      first_line_(LineOf(offset))
{
    WAVE_ASSERT(type != PteType::kWriteBack || config_.coherent,
                "write-back host mappings of NIC DRAM require a coherent "
                "interconnect");
    WAVE_ASSERT(n > 0 && window_end_ <= dram.Backing().Size(),
                "mapping window [%zu, %zu) outside NIC DRAM of %zu bytes",
                offset, window_end_, dram.Backing().Size());
    // Pay the buffer capacities at setup time: a WC line holds at most
    // kLineSize / kWordSize word stores, the posted-buffer pool levels
    // off at the number of concurrently in-flight bursts, and a
    // cacheable mapping holds at most every line of its window.
    wc_stores_.reserve(PcieConfig::kLineSize / PcieConfig::kWordSize);
    posted_pool_.reserve(16);
    if (type == PteType::kWriteThrough || type == PteType::kWriteBack) {
        cache_.resize(LineOf(window_end_ - 1) - first_line_ + 1);
        dram.RegisterHostMapping(this);
    }
}

void
HostMmioMapping::CheckWindow(std::size_t offset, std::size_t n) const
{
    WAVE_ASSERT(offset >= window_begin_ && offset + n <= window_end_,
                "access [%zu, %zu) outside mapping window [%zu, %zu)",
                offset, offset + n, window_begin_, window_end_);
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostMmioMapping::Read(std::size_t offset, void* dst, std::size_t n,
                      bool tolerate_stale)
{
    CheckWindow(offset, n);
    // Reads must observe our own buffered WC stores; real WC reads are
    // unordered with the buffer, so Wave's queues always drain first.
    if (wc_active_) {
        co_await Sfence();
    }
    const bool cached_reads =
        type_ == PteType::kWriteThrough || type_ == PteType::kWriteBack;
    if (cached_reads) {
        co_await ReadCachedWt(offset, dst, n, tolerate_stale);
    } else {
        co_await ReadUncached(offset, dst, n);
    }
}

sim::DurationNs
HostMmioMapping::ExtraPcieDelay() const
{
    auto* injector = dram_.Injector();
    return injector != nullptr ? injector->MmioExtraDelay() : 0;
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostMmioMapping::ReadUncached(std::size_t offset, void* dst, std::size_t n)
{
    const std::size_t words = WordsIn(n);
    stats_.pcie_reads += words;
    co_await dram_.Sim().Delay(config_.mmio_read_ns * words +
                               ExtraPcieDelay());
    dram_.Backing().ReadRaw(offset, dst, n);
    WAVE_CHECK_HOOK({
        if (auto* checker = dram_.Checker()) {
            checker->OnRead(&dram_.Backing(), check::Domain::kHost,
                            offset, n, /*from_host_cache=*/false,
                            /*tolerate_stale=*/false,
                            "HostMmioMapping::ReadUncached");
        }
    });
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostMmioMapping::ReadCachedWt(std::size_t offset, void* dst, std::size_t n,
                              bool tolerate_stale)
{
    constexpr std::size_t kLine = PcieConfig::kLineSize;
    const std::size_t first_line = LineOf(offset);
    const std::size_t last_line = LineOf(offset + n - 1);

    for (std::size_t line = first_line; line <= last_line; ++line) {
        CacheLine& cl = Line(line);
        if (cl.filled) {
            // Filled line in cache: a hit, possibly a stale one.
            stats_.cache_hits += 1;
            if (cl.nic_dirtied) stats_.stale_reads += 1;
            WAVE_CHECK_HOOK({
                if (auto* checker = dram_.Checker()) {
                    const LineSpan span = ClampToLine(line, offset, n);
                    checker->OnRead(&dram_.Backing(),
                                    check::Domain::kHost, span.offset,
                                    span.size, /*from_host_cache=*/true,
                                    tolerate_stale,
                                    "HostMmioMapping::ReadCachedWt");
                }
            });
            co_await dram_.Sim().Delay(config_.cache_hit_ns);
            continue;
        }
        if (cl.present && cl.fill_done > dram_.Sim().Now()) {
            // Prefetch in flight: wait for the remainder only.
            stats_.prefetch_hits += 1;
            co_await dram_.Sim().Delay(cl.fill_done - dram_.Sim().Now());
        } else if (cl.present) {
            // A completed prefetch whose snapshot event already landed
            // would be filled (handled above); an unfilled entry here
            // means the snapshot races with us at this timestamp.
            stats_.prefetch_hits += 1;
            co_await dram_.Sim().Delay(config_.cache_hit_ns);
        } else {
            // Demand miss: full roundtrip for the line.
            stats_.pcie_reads += 1;
            co_await dram_.Sim().Delay(config_.mmio_read_ns +
                                       ExtraPcieDelay());
        }
        // Snapshot the line's current contents into the host cache,
        // whether or not a clflush raced with the fill.
        const std::size_t base = line * kLine;
        const std::size_t len =
            std::min(kLine, dram_.Backing().Size() - base);
        dram_.Backing().ReadRaw(base, cl.data.data(), len);
        cl.present = true;
        cl.filled = true;
        cl.nic_dirtied = false;
        cl.fill_done = dram_.Sim().Now();
        WAVE_CHECK_HOOK({
            if (auto* checker = dram_.Checker()) {
                checker->OnCacheFill(&dram_.Backing(), line);
                const LineSpan span = ClampToLine(line, offset, n);
                checker->OnRead(&dram_.Backing(), check::Domain::kHost,
                                span.offset, span.size,
                                /*from_host_cache=*/false,
                                tolerate_stale,
                                "HostMmioMapping::ReadCachedWt(fill)");
            }
        });
    }

    // Serve the bytes from the cached copies (which may be stale — that
    // is the point of modelling software coherence). A line ensured
    // above can have been invalidated during a later line's fill (only
    // in coherent mode, where remote stores erase it in hardware); in
    // that case the backing store is authoritative and fresh.
    for (std::size_t i = 0; i < n;) {
        const std::size_t line = LineOf(offset + i);
        const std::size_t line_off = (offset + i) % kLine;
        const std::size_t chunk = std::min(kLine - line_off, n - i);
        const CacheLine& cl = Line(line);
        if (cl.filled) {
            std::memcpy(static_cast<std::byte*>(dst) + i,
                        cl.data.data() + line_off, chunk);
        } else {
            WAVE_ASSERT(config_.coherent,
                        "line vanished mid-read on a non-coherent link");
            dram_.Backing().ReadRaw(offset + i,
                                    static_cast<std::byte*>(dst) + i,
                                    chunk);
        }
        i += chunk;
    }
}

std::vector<std::byte>
HostMmioMapping::AcquirePostedBuf(const void* src, std::size_t n)
{
    std::vector<std::byte> buf;
    if (!posted_pool_.empty()) {
        buf = std::move(posted_pool_.back());
        posted_pool_.pop_back();
    }
    const auto* bytes = static_cast<const std::byte*>(src);
    buf.assign(bytes, bytes + n);
    return buf;
}

void
HostMmioMapping::RecyclePostedBuf(std::vector<std::byte>&& buf)
{
    posted_pool_.push_back(std::move(buf));
}

void
HostMmioMapping::PostStores(std::size_t offset, const void* src,
                            std::size_t n)
{
    // Posted writes become visible in NIC DRAM after the one-way delay.
    // A constant delay alone preserves PCIe's posted write ordering (the
    // event queue is FIFO at equal timestamps), but injected latency
    // spikes vary it, so clamp each landing to the previous burst's
    // visibility time: posted writes never reorder, they only bunch up.
    std::vector<std::byte> copy = AcquirePostedBuf(src, n);
    const sim::TimeNs visible_at =
        std::max(dram_.Sim().Now() + config_.posted_visibility_ns +
                     ExtraPcieDelay(),
                 last_posted_visible_);
    last_posted_visible_ = visible_at;
    dram_.Sim().ScheduleAt(
        visible_at, [this, offset, data = std::move(copy)]() mutable {
            dram_.Backing().WriteRaw(offset, data.data(), data.size());
            RecyclePostedBuf(std::move(data));
        });
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostMmioMapping::Write(std::size_t offset, const void* src, std::size_t n)
{
    CheckWindow(offset, n);
    if (type_ == PteType::kWriteCombining) {
        // Stores accumulate in the combining buffer; leaving the current
        // line drains it, like hardware WC buffers.
        const std::size_t first_line = LineOf(offset);
        const std::size_t last_line = LineOf(offset + n - 1);
        if (wc_active_ && (first_line != wc_line_ || last_line != wc_line_)) {
            co_await Sfence();
        }
        if (first_line == last_line) {
            wc_active_ = true;
            wc_line_ = first_line;
            wc_stores_.emplace_back(offset, src, n);
            WAVE_CHECK_HOOK({
                if (auto* checker = dram_.Checker()) {
                    checker->OnWcBuffered(&dram_.Backing(), offset, n,
                                          "HostMmioMapping::Write[WC]");
                }
            });
            co_await dram_.Sim().Delay(
                config_.wc_store_ns * WordsIn(n));
        } else {
            // Multi-line store: issue line-by-line.
            std::size_t done = 0;
            while (done < n) {
                const std::size_t line_off = (offset + done) %
                                             PcieConfig::kLineSize;
                const std::size_t chunk = std::min(
                    PcieConfig::kLineSize - line_off, n - done);
                co_await Write(offset + done,
                               static_cast<const std::byte*>(src) + done,
                               chunk);
                done += chunk;
            }
        }
        co_return;
    }

    // UC and WT stores are posted individually: 50 ns of CPU cost per
    // 64-bit word, visible at the NIC after the one-way delay.
    const std::size_t words = WordsIn(n);
    stats_.posted_writes += words;
    co_await dram_.Sim().Delay(config_.mmio_write_ns * words);
    if (type_ == PteType::kWriteThrough || type_ == PteType::kWriteBack) {
        // Write-through updates any cached copy in place.
        constexpr std::size_t kLine = PcieConfig::kLineSize;
        for (std::size_t i = 0; i < n;) {
            const std::size_t line = LineOf(offset + i);
            const std::size_t line_off = (offset + i) % kLine;
            const std::size_t chunk = std::min(kLine - line_off, n - i);
            CacheLine& cl = Line(line);
            if (cl.filled) {
                std::memcpy(cl.data.data() + line_off,
                            static_cast<const std::byte*>(src) + i, chunk);
            }
            i += chunk;
        }
    }
    WAVE_CHECK_HOOK({
        if (auto* checker = dram_.Checker()) {
            checker->OnWrite(&dram_.Backing(), check::Domain::kHost,
                             offset, n, "HostMmioMapping::Write");
        }
    });
    PostStores(offset, src, n);
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostMmioMapping::Sfence()
{
    if (!wc_active_) co_return;
    stats_.wc_flushes += 1;
    stats_.posted_writes += 1;  // the drained burst is one posted write
    wc_active_ = false;
    // Move to a local: a nested Write/Sfence during the delay below may
    // start (and drain) a new buffer, which must not clobber this one.
    auto stores = std::move(wc_stores_);
    wc_stores_.clear();
    co_await dram_.Sim().Delay(config_.sfence_ns);
    for (const WcStore& store : stores) {
        WAVE_CHECK_HOOK({
            if (auto* checker = dram_.Checker()) {
                checker->OnWcDrained(&dram_.Backing(), store.offset,
                                     store.len);
            }
        });
        PostStores(store.offset, store.data.data(), store.len);
    }
    WAVE_CHECK_HOOK({
        if (auto* checker = dram_.Checker()) {
            checker->OnOrderingPoint("sfence");
        }
    });
    // Hand the drained buffer's capacity back unless a nested burst
    // already started a fresh one.
    if (wc_stores_.capacity() == 0) {
        stores.clear();
        wc_stores_ = std::move(stores);
    }
}

void
HostMmioMapping::Prefetch(std::size_t offset, std::size_t n)
{
    if (type_ != PteType::kWriteThrough && type_ != PteType::kWriteBack) {
        return;  // prefetch only helps cacheable mappings
    }
    CheckWindow(offset, n);
    const std::size_t first_line = LineOf(offset);
    const std::size_t last_line = LineOf(offset + n - 1);
    for (std::size_t line = first_line; line <= last_line; ++line) {
        CacheLine& cl = Line(line);
        if (cl.present) continue;  // cached or already in flight
        const sim::TimeNs fill_done =
            dram_.Sim().Now() + config_.mmio_read_ns + ExtraPcieDelay();
        cl.present = true;
        cl.fill_done = fill_done;
        // Snapshot the line contents when the fill lands, so the data in
        // the host cache is as-of fill time even if read much later.
        dram_.Sim().ScheduleAt(fill_done, [this, line, fill_done] {
            CacheLine& entry = Line(line);
            if (!entry.present || entry.filled ||
                entry.fill_done != fill_done) {
                return;  // clflushed or refilled in the meantime
            }
            constexpr std::size_t kLine = PcieConfig::kLineSize;
            const std::size_t base = line * kLine;
            const std::size_t len =
                std::min(kLine, dram_.Backing().Size() - base);
            dram_.Backing().ReadRaw(base, entry.data.data(), len);
            entry.filled = true;
            entry.nic_dirtied = false;
            WAVE_CHECK_HOOK({
                if (auto* checker = dram_.Checker()) {
                    checker->OnCacheFill(&dram_.Backing(), line);
                }
            });
        });
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
HostMmioMapping::Clflush(std::size_t offset, std::size_t n)
{
    CheckWindow(offset, n);
    // Uncacheable and write-combining mappings have no lines to drop.
    const bool cached = !cache_.empty();
    const std::size_t first_line = LineOf(offset);
    const std::size_t last_line = LineOf(offset + n - 1);
    sim::DurationNs cost = 0;
    for (std::size_t line = first_line; cached && line <= last_line;
         ++line) {
        if (Drop(Line(line))) {
            stats_.clflushes += 1;
            cost += config_.clflush_ns;
            WAVE_CHECK_HOOK({
                if (auto* checker = dram_.Checker()) {
                    checker->OnCacheDrop(&dram_.Backing(), line);
                }
            });
        }
    }
    WAVE_CHECK_HOOK({
        if (auto* checker = dram_.Checker()) {
            checker->OnOrderingPoint("clflush");
        }
    });
    if (cost > 0) {
        co_await dram_.Sim().Delay(cost);
    }
}

void
HostMmioMapping::InvalidateLines(std::size_t offset, std::size_t n)
{
    const std::size_t first_line = std::max(LineOf(offset), first_line_);
    const std::size_t last_line =
        std::min(LineOf(offset + n - 1), first_line_ + cache_.size() - 1);
    for (std::size_t line = first_line; line <= last_line; ++line) {
        if (Drop(Line(line))) {
            WAVE_CHECK_HOOK({
                if (auto* checker = dram_.Checker()) {
                    checker->OnCacheDrop(&dram_.Backing(), line);
                }
            });
        }
    }
}

void
HostMmioMapping::MarkNicDirtied(std::size_t offset, std::size_t n)
{
    const std::size_t first_line = std::max(LineOf(offset), first_line_);
    const std::size_t last_line =
        std::min(LineOf(offset + n - 1), first_line_ + cache_.size() - 1);
    for (std::size_t line = first_line; line <= last_line; ++line) {
        CacheLine& cl = Line(line);
        if (cl.filled) {
            cl.nic_dirtied = true;
        }
    }
}

NicLocalMapping::NicLocalMapping(NicDram& dram, PteType type)
    : dram_(dram), config_(dram.Config()), type_(type)
{
    WAVE_ASSERT(type == PteType::kUncacheable || type == PteType::kWriteBack,
                "NIC cores map their DRAM UC (baseline) or WB (optimized)");
}

sim::DurationNs
NicLocalMapping::AccessCost(std::size_t n) const
{
    const std::size_t words =
        (n + PcieConfig::kWordSize - 1) / PcieConfig::kWordSize;
    const sim::DurationNs per_word = type_ == PteType::kUncacheable
                                         ? config_.nic_uncached_access_ns
                                         : config_.nic_wb_access_ns;
    return per_word * words;
}

void
NicLocalMapping::ReadOp::await_resume() const
{
    NicDram& dram = map.dram_;
    dram.Backing().ReadRaw(offset, dst, n);
    WAVE_CHECK_HOOK({
        if (auto* checker = dram.Checker()) {
            checker->OnRead(&dram.Backing(), check::Domain::kNic, offset,
                            n, /*from_host_cache=*/false, tolerate_stale,
                            "NicLocalMapping::Read");
        }
    });
}

void
NicLocalMapping::WriteOp::await_resume() const
{
    NicDram& dram = map.dram_;
    dram.Backing().WriteRaw(offset, src, n);
    WAVE_CHECK_HOOK({
        if (auto* checker = dram.Checker()) {
            checker->OnWrite(&dram.Backing(), check::Domain::kNic,
                             offset, n, "NicLocalMapping::Write");
        }
    });
    dram.OnNicWrite(offset, n);
}

}  // namespace wave::pcie
