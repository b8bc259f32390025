/**
 * @file
 * Unit tests for the PCIe interconnect model: MMIO PTE-type semantics,
 * software coherence (staleness + clflush), prefetch, write-combining,
 * MSI-X timing, and the DMA engine.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "pcie/config.h"
#include "pcie/dma.h"
#include "pcie/mmio.h"
#include "pcie/msix.h"
#include "sim/simulator.h"

namespace wave::pcie {
namespace {

using sim::Simulator;
using sim::Task;
using sim::TimeNs;

/** Runs a coroutine test body to completion on a fresh simulator. */
void
RunSim(Simulator& sim, Task<> body)
{
    sim.Spawn(std::move(body));
    sim.Run();
}

std::uint64_t
ReadU64(MemoryRegion& region, std::size_t offset)
{
    std::uint64_t v = 0;
    region.ReadRaw(offset, &v, sizeof(v));
    return v;
}

TEST(MemoryRegion, RawReadWriteRoundTrips)
{
    MemoryRegion region(256);
    const std::uint64_t v = 0xDEADBEEFCAFEF00Dull;
    region.WriteRaw(16, &v, sizeof(v));
    EXPECT_EQ(ReadU64(region, 16), v);
}

TEST(Mmio, UncachedReadCostsRoundTripPerWord)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kUncacheable);

    const std::uint64_t v = 42;
    dram.Backing().WriteRaw(0, &v, sizeof(v));

    RunSim(sim, [](Simulator& s, HostMmioMapping& m,
                   const PcieConfig& c) -> Task<> {
        std::uint64_t out = 0;
        const TimeNs start = s.Now();
        co_await m.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 42u);
        EXPECT_EQ(s.Now() - start, c.mmio_read_ns);

        // Two words cost two roundtrips.
        std::uint64_t two[2];
        const TimeNs start2 = s.Now();
        co_await m.Read(0, two, sizeof(two));
        EXPECT_EQ(s.Now() - start2, 2 * c.mmio_read_ns);
    }(sim, map, cfg));
    EXPECT_EQ(map.Stats().pcie_reads, 3u);
}

TEST(Mmio, UncachedWriteIsPostedAndEventuallyVisible)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kUncacheable);

    RunSim(sim, [](Simulator& s, HostMmioMapping& m, NicDram& d,
                   const PcieConfig& c) -> Task<> {
        const std::uint64_t v = 7;
        const TimeNs start = s.Now();
        co_await m.Write(64, &v, sizeof(v));
        // CPU cost is only the posted-write overhead...
        EXPECT_EQ(s.Now() - start, c.mmio_write_ns);
        // ...and the data has NOT landed yet.
        EXPECT_EQ(ReadU64(d.Backing(), 64), 0u);
        co_await s.Delay(c.posted_visibility_ns);
        EXPECT_EQ(ReadU64(d.Backing(), 64), 7u);
    }(sim, map, dram, cfg));
}

TEST(Mmio, PostedWritesArriveInOrder)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kUncacheable);

    // Producer protocol: write the payload, then the valid flag. The
    // flag must never be visible before the payload.
    RunSim(sim, [](Simulator& s, HostMmioMapping& m, NicDram& d) -> Task<> {
        const std::uint64_t payload = 123;
        const std::uint64_t flag = 1;
        co_await m.Write(0, &payload, sizeof(payload));
        co_await m.Write(8, &flag, sizeof(flag));
        // Poll NIC-visible memory each ns; whenever the flag is set the
        // payload must already be there.
        for (int i = 0; i < 1000; ++i) {
            if (ReadU64(d.Backing(), 8) == 1) {
                EXPECT_EQ(ReadU64(d.Backing(), 0), 123u);
                co_return;
            }
            co_await s.Delay(1);
        }
        ADD_FAILURE() << "flag never became visible";
    }(sim, map, dram));
}

TEST(Mmio, WriteThroughCachesLinesAndAmortizesReads)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteThrough);

    std::uint64_t vals[8];
    for (int i = 0; i < 8; ++i) vals[i] = 100 + i;
    dram.Backing().WriteRaw(0, vals, sizeof(vals));

    RunSim(sim, [](Simulator& s, HostMmioMapping& m,
                   const PcieConfig& c) -> Task<> {
        std::uint64_t out = 0;
        const TimeNs t0 = s.Now();
        co_await m.Read(0, &out, sizeof(out));  // miss: full roundtrip
        EXPECT_EQ(s.Now() - t0, c.mmio_read_ns);
        EXPECT_EQ(out, 100u);

        // The rest of the 64-byte line is now cached: cheap reads.
        const TimeNs t1 = s.Now();
        for (std::size_t i = 1; i < 8; ++i) {
            co_await m.Read(i * 8, &out, 8);
            EXPECT_EQ(out, 100 + i);
        }
        EXPECT_LE(s.Now() - t1, 7 * c.cache_hit_ns);
    }(sim, map, cfg));
    EXPECT_EQ(map.Stats().pcie_reads, 1u);
    EXPECT_EQ(map.Stats().cache_hits, 7u);
}

TEST(Mmio, WriteThroughCacheGoesStaleWithoutClflush)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping host(dram, PteType::kWriteThrough);
    NicLocalMapping nic(dram, PteType::kWriteBack);

    RunSim(sim, [](HostMmioMapping& h, NicLocalMapping& n) -> Task<> {
        std::uint64_t out = 0;
        co_await h.Read(0, &out, sizeof(out));  // cache the line (value 0)
        EXPECT_EQ(out, 0u);

        // NIC updates the decision slot.
        const std::uint64_t decision = 99;
        co_await n.Write(0, &decision, sizeof(decision));

        // Host re-read WITHOUT clflush: sees the stale cached copy.
        co_await h.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 0u) << "expected staleness over non-coherent PCIe";
        EXPECT_EQ(h.Stats().stale_reads, 1u);

        // Software coherence: clflush then re-read sees fresh data.
        co_await h.Clflush(0, 8);
        co_await h.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 99u);
    }(host, nic));
    EXPECT_EQ(host.Stats().clflushes, 1u);
}

TEST(Mmio, CoherentInterconnectInvalidatesInHardware)
{
    Simulator sim;
    PcieConfig cfg = PcieConfig::Upi();
    ASSERT_TRUE(cfg.coherent);
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping host(dram, PteType::kWriteBack);
    NicLocalMapping nic(dram, PteType::kWriteBack);

    RunSim(sim, [](HostMmioMapping& h, NicLocalMapping& n) -> Task<> {
        std::uint64_t out = 0;
        co_await h.Read(0, &out, sizeof(out));
        const std::uint64_t decision = 55;
        co_await n.Write(0, &decision, sizeof(decision));
        // No clflush needed: hardware coherence invalidated the line.
        co_await h.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 55u);
        EXPECT_EQ(h.Stats().stale_reads, 0u);
    }(host, nic));
}

TEST(Mmio, PrefetchHidesReadLatency)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteThrough);
    const std::uint64_t v = 31337;
    dram.Backing().WriteRaw(128, &v, sizeof(v));

    RunSim(sim, [](Simulator& s, HostMmioMapping& m,
                   const PcieConfig& c) -> Task<> {
        // Prefetch, then do ~1 us of other work (updating kernel state,
        // sending the message), then demand-read: free.
        m.Prefetch(128, 8);
        co_await s.Delay(1000);
        std::uint64_t out = 0;
        const TimeNs t0 = s.Now();
        co_await m.Read(128, &out, sizeof(out));
        EXPECT_EQ(out, 31337u);
        EXPECT_LE(s.Now() - t0, c.cache_hit_ns);
    }(sim, map, cfg));
    EXPECT_EQ(map.Stats().pcie_reads, 0u);
}

TEST(Mmio, EarlyDemandReadWaitsOnlyForPrefetchRemainder)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteThrough);

    RunSim(sim, [](Simulator& s, HostMmioMapping& m,
                   const PcieConfig& c) -> Task<> {
        m.Prefetch(0, 8);
        co_await s.Delay(300);  // only part of the fill time has passed
        std::uint64_t out = 0;
        const TimeNs t0 = s.Now();
        co_await m.Read(0, &out, sizeof(out));
        EXPECT_EQ(s.Now() - t0, c.mmio_read_ns - 300);
    }(sim, map, cfg));
    EXPECT_EQ(map.Stats().prefetch_hits, 1u);
}

// --- In-flight WT cache states ---------------------------------------

TEST(Mmio, ClflushDuringPrefetchDropsTheLanding)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping host(dram, PteType::kWriteThrough);
    NicLocalMapping nic(dram, PteType::kWriteBack);
    const std::uint64_t old_value = 1;
    dram.Backing().WriteRaw(0, &old_value, sizeof(old_value));

    RunSim(sim, [](Simulator& s, HostMmioMapping& h, NicLocalMapping& n,
                   const PcieConfig& c) -> Task<> {
        h.Prefetch(0, 8);
        co_await s.Delay(100);
        co_await h.Clflush(0, 8);  // the fill is still in flight
        co_await s.Delay(c.mmio_read_ns);  // past the dropped landing
        const std::uint64_t newer = 2;
        co_await n.Write(0, &newer, sizeof(newer));
        std::uint64_t out = 0;
        co_await h.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 2u) << "a dropped landing must not fill the line";
    }(sim, host, nic, cfg));
    EXPECT_EQ(host.Stats().clflushes, 1u);
    EXPECT_EQ(host.Stats().pcie_reads, 1u);  // the read was a miss
    EXPECT_EQ(host.Stats().cache_hits, 0u);
    EXPECT_EQ(host.Stats().prefetch_hits, 0u);
}

TEST(Mmio, PrefetchAfterClflushIgnoresTheEarlierLanding)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping host(dram, PteType::kWriteThrough);
    NicLocalMapping nic(dram, PteType::kWriteBack);
    const std::uint64_t old_value = 1;
    dram.Backing().WriteRaw(0, &old_value, sizeof(old_value));

    RunSim(sim, [](Simulator& s, HostMmioMapping& h, NicLocalMapping& n,
                   const PcieConfig& c) -> Task<> {
        const TimeNs first_fill = s.Now() + c.mmio_read_ns;
        h.Prefetch(0, 8);
        co_await s.Delay(100);
        co_await h.Clflush(0, 8);
        co_await s.Delay(100);
        h.Prefetch(0, 8);  // a second fill, landing after the first
        // The NIC stores between the two landings. Had the first one
        // filled the line, the second would find it filled and the
        // read below would return the old bytes.
        co_await s.Delay(first_fill - s.Now() + 1);
        const std::uint64_t newer = 2;
        co_await n.Write(0, &newer, sizeof(newer));
        co_await s.Delay(c.mmio_read_ns);  // the second fill has landed
        std::uint64_t out = 0;
        co_await h.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 2u) << "the first landing's fill_done differs";
    }(sim, host, nic, cfg));
    EXPECT_EQ(host.Stats().cache_hits, 1u);
    EXPECT_EQ(host.Stats().stale_reads, 0u);
    EXPECT_EQ(host.Stats().pcie_reads, 0u);
}

TEST(Mmio, NicStoreDuringInFlightFillDoesNotDirtyTheLine)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping host(dram, PteType::kWriteThrough);
    NicLocalMapping nic(dram, PteType::kWriteBack);

    RunSim(sim, [](Simulator& s, HostMmioMapping& h, NicLocalMapping& n,
                   const PcieConfig& c) -> Task<> {
        h.Prefetch(0, 8);
        co_await s.Delay(100);
        // Nothing is cached yet, so nothing can go stale: the landing
        // snapshots the stored bytes.
        const std::uint64_t decision = 7;
        co_await n.Write(0, &decision, sizeof(decision));
        co_await s.Delay(c.mmio_read_ns);
        std::uint64_t out = 0;
        co_await h.Read(0, &out, sizeof(out));
        EXPECT_EQ(out, 7u);
    }(sim, host, nic, cfg));
    EXPECT_EQ(host.Stats().cache_hits, 1u);
    EXPECT_EQ(host.Stats().stale_reads, 0u);
}

TEST(Mmio, WriteCombiningBatchesStoresUntilSfence)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteCombining);

    RunSim(sim, [](Simulator& s, HostMmioMapping& m, NicDram& d,
                   const PcieConfig& c) -> Task<> {
        // Fill most of one line word-by-word: each store is ~wc_store_ns,
        // far below the 50 ns posted-write cost.
        const TimeNs t0 = s.Now();
        for (std::size_t i = 0; i < 6; ++i) {
            const std::uint64_t v = 1000 + i;
            co_await m.Write(i * 8, &v, 8);
        }
        EXPECT_EQ(s.Now() - t0, 6 * c.wc_store_ns);
        // Nothing visible at the NIC before the fence drains the buffer.
        EXPECT_EQ(ReadU64(d.Backing(), 0), 0u);

        co_await m.Sfence();
        co_await s.Delay(c.posted_visibility_ns);
        for (std::size_t i = 0; i < 6; ++i) {
            EXPECT_EQ(ReadU64(d.Backing(), i * 8), 1000 + i);
        }
    }(sim, map, dram, cfg));
    EXPECT_EQ(map.Stats().wc_flushes, 1u);
}

TEST(Mmio, WriteCombiningFlushesWhenLeavingTheLine)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteCombining);

    RunSim(sim, [](Simulator& s, HostMmioMapping& m, NicDram& d,
                   const PcieConfig& c) -> Task<> {
        const std::uint64_t a = 1;
        const std::uint64_t b = 2;
        co_await m.Write(0, &a, 8);     // line 0 buffered
        co_await m.Write(64, &b, 8);    // line 1: drains line 0
        co_await s.Delay(c.sfence_ns + c.posted_visibility_ns);
        EXPECT_EQ(ReadU64(d.Backing(), 0), 1u);   // line 0 landed
        EXPECT_EQ(ReadU64(d.Backing(), 64), 0u);  // line 1 still buffered
    }(sim, map, dram, cfg));
}

TEST(Mmio, ReadDrainsOwnWriteCombiningBuffer)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteCombining);

    RunSim(sim, [](HostMmioMapping& m) -> Task<> {
        const std::uint64_t v = 77;
        co_await m.Write(0, &v, 8);
        std::uint64_t out = 0;
        co_await m.Read(0, &out, 8);  // must observe our own store
        EXPECT_EQ(out, 77u);
    }(map));
}

TEST(Mmio, NicUncachedVsWritebackCosts)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    NicLocalMapping uc(dram, PteType::kUncacheable);
    NicLocalMapping wb(dram, PteType::kWriteBack);

    RunSim(sim, [](Simulator& s, NicLocalMapping& u, NicLocalMapping& w,
                   const PcieConfig& c) -> Task<> {
        std::uint64_t buf[4] = {1, 2, 3, 4};
        TimeNs t0 = s.Now();
        co_await u.Write(0, buf, sizeof(buf));
        EXPECT_EQ(s.Now() - t0, 4 * c.nic_uncached_access_ns);

        t0 = s.Now();
        co_await w.Write(64, buf, sizeof(buf));
        EXPECT_EQ(s.Now() - t0, 4 * c.nic_wb_access_ns);
    }(sim, uc, wb, cfg));
}

TEST(MsiX, EndToEndLatencyMatchesTable2)
{
    Simulator sim;
    PcieConfig cfg;
    MsiXVector vec(sim, cfg);

    TimeNs send_start{};
    TimeNs handler_entry{};

    auto sender = [](Simulator& s, MsiXVector& v, TimeNs& start) -> Task<> {
        start = s.Now();
        const TimeNs t0 = s.Now();
        co_await v.Send();
        // The sender is blocked only for the register-write cost.
        EXPECT_EQ(s.Now() - t0, PcieConfig{}.msix_send_ns);
    };
    auto receiver = [](Simulator& s, MsiXVector& v, TimeNs& entry) -> Task<> {
        co_await v.WaitAndReceive();
        entry = s.Now();
    };
    sim.Spawn(receiver(sim, vec, handler_entry));
    sim.Spawn(sender(sim, vec, send_start));
    sim.Run();

    EXPECT_EQ(handler_entry - send_start, cfg.msix_end_to_end_ns);
}

TEST(MsiX, MaskedVectorLatchesPendingWithoutWaking)
{
    Simulator sim;
    PcieConfig cfg;
    MsiXVector vec(sim, cfg);
    vec.SetMasked(true);

    bool woke = false;
    auto receiver = [](MsiXVector& v, bool& w) -> Task<> {
        co_await v.WaitAndReceive();
        w = true;
    };
    auto sender = [](MsiXVector& v) -> Task<> { co_await v.Send(); };
    sim.Spawn(receiver(vec, woke));
    sim.Spawn(sender(vec));
    sim.RunFor(100'000);

    EXPECT_FALSE(woke);
    EXPECT_TRUE(vec.Pending());
    EXPECT_TRUE(vec.ConsumePending());
    EXPECT_FALSE(vec.Pending());
}

TEST(MsiX, IoctlPathCostsMore)
{
    Simulator sim;
    PcieConfig cfg;
    MsiXVector vec(sim, cfg);

    RunSim(sim, [](Simulator& s, MsiXVector& v,
                   const PcieConfig& c) -> Task<> {
        const TimeNs t0 = s.Now();
        co_await v.Send(MsiXVector::SendPath::kIoctl);
        EXPECT_EQ(s.Now() - t0, c.msix_send_ioctl_ns);
    }(sim, vec, cfg));
}

TEST(Dma, SyncTransferMovesDataWithSetupPlusBandwidthCost)
{
    Simulator sim;
    PcieConfig cfg;
    MemoryRegion host_mem(1 << 20);
    MemoryRegion nic_mem(1 << 20);
    DmaEngine dma(sim, cfg);

    std::vector<std::uint64_t> payload(1024);
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3;
    host_mem.WriteRaw(0, payload.data(), payload.size() * 8);

    RunSim(sim, [](Simulator& s, DmaEngine& d, MemoryRegion& src,
                   MemoryRegion& dst, const PcieConfig& c) -> Task<> {
        const std::size_t bytes = 8192;
        const TimeNs t0 = s.Now();
        co_await d.Transfer(DmaInitiator::kNic, src, 0, dst, 0, bytes);
        const sim::DurationNs expected =
            c.nic_wb_access_ns * c.dma_doorbell_writes + c.dma_setup_ns +
            sim::DurationNs::FromDouble(bytes / c.dma_bytes_per_ns);
        EXPECT_EQ(s.Now() - t0, expected);
    }(sim, dma, host_mem, nic_mem, cfg));

    std::vector<std::uint64_t> out(1024);
    nic_mem.ReadRaw(0, out.data(), out.size() * 8);
    EXPECT_EQ(out, payload);
}

TEST(Dma, AsyncTransferOverlapsWithCompute)
{
    Simulator sim;
    PcieConfig cfg;
    MemoryRegion host_mem(1 << 16);
    MemoryRegion nic_mem(1 << 16);
    DmaEngine dma(sim, cfg);

    RunSim(sim, [](Simulator& s, DmaEngine& d, MemoryRegion& src,
                   MemoryRegion& dst, const PcieConfig& c) -> Task<> {
        const std::size_t bytes = 4096;
        auto completion = co_await d.TransferAsync(DmaInitiator::kNic, src,
                                                   0, dst, 0, bytes);
        const TimeNs after_kick = s.Now();
        EXPECT_FALSE(completion->Done());
        // Overlap compute with the in-flight DMA.
        co_await s.Delay(500);
        co_await completion->Wait();
        const sim::DurationNs wire =
            c.dma_setup_ns +
            sim::DurationNs::FromDouble(bytes / c.dma_bytes_per_ns);
        EXPECT_EQ(s.Now() - after_kick, wire);
    }(sim, dma, host_mem, nic_mem, cfg));
}

TEST(Dma, ChannelSerializesConcurrentTransfers)
{
    Simulator sim;
    PcieConfig cfg;
    MemoryRegion host_mem(1 << 16);
    MemoryRegion nic_mem(1 << 16);
    DmaEngine dma(sim, cfg);

    TimeNs done_a{};
    TimeNs done_b{};
    auto xfer = [](DmaEngine& d, MemoryRegion& src, MemoryRegion& dst,
                   TimeNs& done, Simulator& s) -> Task<> {
        co_await d.Transfer(DmaInitiator::kNic, src, 0, dst, 0, 4096);
        done = s.Now();
    };
    sim.Spawn(xfer(dma, host_mem, nic_mem, done_a, sim));
    sim.Spawn(xfer(dma, host_mem, nic_mem, done_b, sim));
    sim.Run();

    const sim::DurationNs wire =
        cfg.dma_setup_ns +
        sim::DurationNs::FromDouble(4096 / cfg.dma_bytes_per_ns);
    // The second transfer queued behind the first.
    EXPECT_GE(std::max(done_a, done_b) - std::min(done_a, done_b),
              wire - 1);
    EXPECT_EQ(dma.TransfersStarted(), 2u);
    EXPECT_EQ(dma.BytesMoved(), 8192u);
}

// Property sweep: WC batching must always beat UC word stores for any
// batch size that fits one line, and the advantage grows with size.
class WcBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(WcBatchTest, BatchingBeatsUncachedStores)
{
    const int words = GetParam();
    PcieConfig cfg;

    Simulator sim;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping wc(dram, PteType::kWriteCombining);
    HostMmioMapping uc(dram, PteType::kUncacheable);

    sim::DurationNs wc_cost{};
    sim::DurationNs uc_cost{};
    RunSim(sim, [](Simulator& s, HostMmioMapping& w, HostMmioMapping& u,
                   int n, sim::DurationNs& wcc, sim::DurationNs& ucc) -> Task<> {
        TimeNs t0 = s.Now();
        for (int i = 0; i < n; ++i) {
            const std::uint64_t v = i;
            co_await w.Write(static_cast<std::size_t>(i) * 8, &v, 8);
        }
        co_await w.Sfence();
        wcc = s.Now() - t0;

        t0 = s.Now();
        for (int i = 0; i < n; ++i) {
            const std::uint64_t v = i;
            co_await u.Write(1024 + static_cast<std::size_t>(i) * 8, &v, 8);
        }
        ucc = s.Now() - t0;
    }(sim, wc, uc, words, wc_cost, uc_cost));

    EXPECT_LT(wc_cost, uc_cost);
    const sim::DurationNs expected_wc = words * cfg.wc_store_ns + cfg.sfence_ns;
    EXPECT_EQ(wc_cost, expected_wc);
    EXPECT_EQ(uc_cost, words * cfg.mmio_write_ns);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WcBatchTest, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace wave::pcie

namespace wave::pcie {
namespace {

TEST(Dma, RemoteNumaPlacementLosesBandwidth)
{
    sim::Simulator sim;
    PcieConfig cfg;
    DmaEngine dma(sim, cfg);
    const std::size_t bytes = 1 << 20;
    const auto local_time = dma.TransferTime(bytes);
    dma.SetNumaLocal(false);
    const auto remote_time = dma.TransferTime(bytes);
    EXPECT_GT(remote_time, local_time);
    // 10-20% effective-bandwidth loss on the wire portion (§5.1).
    const double wire_local =
        (local_time - cfg.dma_setup_ns).ToDouble();
    const double wire_remote =
        (remote_time - cfg.dma_setup_ns).ToDouble();
    EXPECT_NEAR(wire_local / wire_remote, cfg.dma_remote_numa_factor,
                0.01);
}

}  // namespace
}  // namespace wave::pcie

namespace wave::pcie {
namespace {

TEST(Mmio, MultiLineWriteThroughReadCostsOneFetchPerLine)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteThrough);

    RunSim(sim, [](Simulator& s, HostMmioMapping& m,
                   const PcieConfig& c) -> Task<> {
        std::byte buffer[192];  // spans 3 lines
        const TimeNs t0 = s.Now();
        co_await m.Read(0, buffer, sizeof(buffer));
        EXPECT_EQ(s.Now() - t0, 3 * c.mmio_read_ns);
        // Everything is now cached: the same read is nearly free.
        const TimeNs t1 = s.Now();
        co_await m.Read(0, buffer, sizeof(buffer));
        EXPECT_LE(s.Now() - t1, 3 * c.cache_hit_ns);
    }(sim, map, cfg));
    EXPECT_EQ(map.Stats().pcie_reads, 3u);
    EXPECT_EQ(map.Stats().cache_hits, 3u);
}

TEST(Mmio, WriteThroughStoreUpdatesTheCachedCopy)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteThrough);

    RunSim(sim, [](HostMmioMapping& m) -> Task<> {
        std::uint64_t out = 0;
        co_await m.Read(0, &out, 8);  // cache the line (0)
        const std::uint64_t v = 321;
        co_await m.Write(0, &v, 8);   // write-through updates the cache
        co_await m.Read(0, &out, 8);  // hit sees our own store
        EXPECT_EQ(out, 321u);
    }(map));
    EXPECT_EQ(map.Stats().pcie_reads, 1u);
}

TEST(Mmio, WriteCombiningMultiLineStoreSplitsByLine)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteCombining);

    RunSim(sim, [](Simulator& s, HostMmioMapping& m, NicDram& d,
                   const PcieConfig& c) -> Task<> {
        std::byte buffer[128];
        for (std::size_t i = 0; i < sizeof(buffer); ++i) {
            buffer[i] = static_cast<std::byte>(i);
        }
        co_await m.Write(0, buffer, sizeof(buffer));
        co_await m.Sfence();
        co_await s.Delay(c.posted_visibility_ns + c.sfence_ns);
        std::byte check[128];
        d.Backing().ReadRaw(0, check, sizeof(check));
        EXPECT_EQ(std::memcmp(buffer, check, sizeof(buffer)), 0);
    }(sim, map, dram, cfg));
    // Crossing the line boundary drained the first line (one flush),
    // and the final sfence drained the second.
    EXPECT_EQ(map.Stats().wc_flushes, 2u);
}

TEST(Mmio, ClflushOnUncachedLineIsFree)
{
    Simulator sim;
    PcieConfig cfg;
    NicDram dram(sim, cfg, 4096);
    HostMmioMapping map(dram, PteType::kWriteThrough);
    RunSim(sim, [](Simulator& s, HostMmioMapping& m) -> Task<> {
        const TimeNs t0 = s.Now();
        co_await m.Clflush(0, 64);  // nothing cached
        EXPECT_EQ(s.Now(), t0);
    }(sim, map));
    EXPECT_EQ(map.Stats().clflushes, 0u);
}

}  // namespace
}  // namespace wave::pcie
