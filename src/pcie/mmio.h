/**
 * @file
 * MMIO access model over non-coherent PCIe (§5.2-5.3 of the paper).
 *
 * The SmartNIC exposes a window of its SoC DRAM to the host. The host
 * maps that window with a chosen page-table-entry type and pays the
 * corresponding costs:
 *
 *   - Uncacheable (UC): every 64-bit read is a 750 ns PCIe roundtrip;
 *     every 64-bit write is a 50 ns posted store.
 *   - Write-combining (WC): reads stay uncached, but stores land in a
 *     64-byte combining buffer for ~2 ns each; the buffer drains as one
 *     posted burst on sfence or when the store stream leaves the line.
 *   - Write-through (WT): stores go straight to memory (posted), but the
 *     first read of a line pulls the whole 64-byte line into the host
 *     cache for one roundtrip; later reads of that line are cache hits.
 *     Over non-coherent PCIe the cached copy can go STALE when the NIC
 *     writes — Wave's software-coherence protocol must clflush it. Over
 *     a coherent interconnect (config.coherent) hardware invalidates.
 *
 * The NIC side accesses the same bytes as local DRAM, either uncacheable
 * (the un-optimized baseline in Table 3) or write-back (the "SmartNIC WB
 * PTEs" optimization).
 *
 * All mappings move real bytes through the shared NicDram backing store
 * with correct posted-write visibility ordering, so protocol bugs (e.g.
 * reading an entry before its valid flag lands) surface in simulation
 * exactly as they would on hardware.
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "pcie/config.h"
#include "pcie/memory.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace wave::check {
class CoherenceChecker;
}

namespace wave::sim::inject {
class FaultInjector;
}

namespace wave::pcie {

/** Page-table-entry cache attribute for a mapping (§5.3.1). */
enum class PteType {
    kUncacheable,
    kWriteCombining,
    kWriteThrough,
    kWriteBack,
};

class HostMmioMapping;

/** The MMIO-exposed region of SmartNIC SoC DRAM. */
class NicDram {
  public:
    NicDram(sim::Simulator& sim, const PcieConfig& config, std::size_t size)
        : sim_(sim), config_(config), backing_(size)
    {
    }

    MemoryRegion& Backing() { return backing_; }
    const PcieConfig& Config() const { return config_; }
    sim::Simulator& Sim() { return sim_; }

    /** Registers a caching host mapping for coherence callbacks. */
    void RegisterHostMapping(HostMmioMapping* mapping);

    /**
     * Called on every NIC-side store: invalidates (coherent link) or
     * marks stale (PCIe) the host-cached copies of the stored lines.
     * Only mappings whose window covers the range are visited.
     */
    void OnNicWrite(std::size_t offset, std::size_t n);

    /**
     * Attaches a wave::check coherence checker; all mappings over this
     * DRAM report their accesses to it. Pass nullptr to detach.
     */
    void AttachChecker(check::CoherenceChecker* checker)
    {
        checker_ = checker;
    }
    check::CoherenceChecker* Checker() const { return checker_; }

    /**
     * Attaches the fault injector; host mappings over this DRAM then
     * pay its extra MMIO delay on every PCIe roundtrip and posted-
     * visibility hop (latency-spike windows). Pass nullptr to detach.
     */
    void SetFaultInjector(sim::inject::FaultInjector* injector)
    {
        injector_ = injector;
    }
    sim::inject::FaultInjector* Injector() const { return injector_; }

  private:
    sim::Simulator& sim_;
    PcieConfig config_;
    MemoryRegion backing_;
    std::vector<HostMmioMapping*> host_mappings_;
    check::CoherenceChecker* checker_ = nullptr;
    sim::inject::FaultInjector* injector_ = nullptr;
};

/** Access statistics for assertions and bench reporting. */
struct MmioStats {
    std::uint64_t pcie_reads = 0;      ///< roundtrip line/word fetches
    std::uint64_t cache_hits = 0;      ///< WT reads served from host cache
    std::uint64_t prefetch_hits = 0;   ///< demand reads that met a prefetch
    std::uint64_t posted_writes = 0;   ///< individual posted stores
    std::uint64_t wc_flushes = 0;      ///< WC buffer drains
    std::uint64_t clflushes = 0;       ///< explicit line flushes
    std::uint64_t stale_reads = 0;     ///< hits on lines the NIC had dirtied
};

/**
 * The host CPU's view of the NIC DRAM window, with PTE-type semantics.
 *
 * One mapping models one logical region (e.g. one queue); a host core
 * performs at most one access at a time through it, and only inside
 * its window. A cacheable (WT/WB) mapping sizes its line cache to the
 * window at construction.
 */
class HostMmioMapping {
  public:
    /** Maps the whole DRAM. */
    HostMmioMapping(NicDram& dram, PteType type);

    /** Maps the window [offset, offset+n) of the DRAM. */
    HostMmioMapping(NicDram& dram, PteType type, std::size_t offset,
                    std::size_t n);

    /**
     * Demand read of [offset, offset+n). Applies UC or WT semantics.
     *
     * @param tolerate_stale annotates protocol reads that validate
     *        freshness another way (generation flags, conservative
     *        counters); the coherence checker counts — but does not
     *        report — stale cache hits on such reads.
     */
    sim::Task<> Read(std::size_t offset, void* dst, std::size_t n,
                     bool tolerate_stale = false);

    /** Store to [offset, offset+n). Applies UC, WT, or WC semantics. */
    sim::Task<> Write(std::size_t offset, const void* src, std::size_t n);

    /** Drains the write-combining buffer (no-op for other types). */
    sim::Task<> Sfence();

    /**
     * Starts asynchronous fills of the lines covering the range
     * (§5.4 "Prefetching MMIO Decisions"). Free for the caller; a later
     * demand read waits only for the remaining fill time.
     */
    void Prefetch(std::size_t offset, std::size_t n);

    /** Software coherence: drops cached copies of the covered lines. */
    sim::Task<> Clflush(std::size_t offset, std::size_t n);

    const MmioStats& Stats() const { return stats_; }

  private:
    friend class NicDram;

    /** One window line of the WT cache. */
    struct CacheLine {
        std::array<std::byte, PcieConfig::kLineSize> data{};
        sim::TimeNs fill_done{};   ///< when an in-flight fill lands
        bool present = false;      ///< cached, or a fill is in flight
        bool filled = false;       ///< data holds the line's bytes
        bool nic_dirtied = false;  ///< NIC wrote since we cached it
    };

    static std::size_t LineOf(std::size_t offset)
    {
        return offset / PcieConfig::kLineSize;
    }

    /** Cache entry of @p line, which must lie inside the window. */
    CacheLine& Line(std::size_t line)
    {
        return cache_[line - first_line_];
    }

    /** Asserts [offset, offset+n) lies inside the window. */
    void CheckWindow(std::size_t offset, std::size_t n) const;

    /** True when the cache holds entries for lines of [offset, offset+n). */
    bool CachesAny(std::size_t offset, std::size_t n) const
    {
        return LineOf(offset) < first_line_ + cache_.size() &&
               LineOf(offset + n - 1) >= first_line_;
    }

    static std::size_t WordsIn(std::size_t n)
    {
        return (n + PcieConfig::kWordSize - 1) / PcieConfig::kWordSize;
    }

    sim::Task<> ReadUncached(std::size_t offset, void* dst, std::size_t n);
    sim::Task<> ReadCachedWt(std::size_t offset, void* dst, std::size_t n,
                             bool tolerate_stale);

    /** Injected extra latency per PCIe hop (0 without an injector). */
    sim::DurationNs ExtraPcieDelay() const;

    /** Issues the posted stores for [offset, n) (visibility-delayed). */
    void PostStores(std::size_t offset, const void* src, std::size_t n);

    /**
     * Checks out a payload buffer for one posted burst, holding a copy
     * of the @p n bytes at @p src. Buffers recycle through posted_pool_
     * when the visibility event lands, so the steady-state posted-write
     * path never allocates.
     */
    std::vector<std::byte> AcquirePostedBuf(const void* src, std::size_t n);
    void RecyclePostedBuf(std::vector<std::byte>&& buf);

    /**
     * Empties @p cl, cancelling any fill in flight; false when it held
     * nothing.
     */
    static bool Drop(CacheLine& cl)
    {
        if (!cl.present) return false;
        cl.present = false;
        cl.filled = false;
        cl.nic_dirtied = false;
        cl.fill_done = sim::TimeNs{};
        return true;
    }

    /** Hardware invalidation callback (coherent mode). */
    void InvalidateLines(std::size_t offset, std::size_t n);

    /** Marks overlapped cached lines stale (non-coherent NIC write). */
    void MarkNicDirtied(std::size_t offset, std::size_t n);

    NicDram& dram_;
    const PcieConfig& config_;
    PteType type_;
    MmioStats stats_;

    std::size_t window_begin_;  ///< first byte of the mapped window
    std::size_t window_end_;    ///< one past its last byte

    // WT line cache: one entry per window line from first_line_ on;
    // empty for uncacheable and write-combining mappings.
    std::size_t first_line_;
    std::vector<CacheLine> cache_;

    /**
     * Visibility time of the last posted burst. Injected latency spikes
     * vary the posted delay, so landings are clamped to never precede
     * an older burst — PCIe posted writes cannot reorder.
     */
    sim::TimeNs last_posted_visible_{};

    // Write-combining buffer: at most one line being combined. Each
    // buffered store spans at most one line, so its payload fits a
    // fixed-size slot — no per-store heap allocation. A store copies in
    // only its `len` bytes; nothing reads past them, so the slot is not
    // zero-filled.
    struct WcStore {
        WcStore(std::size_t at, const void* src, std::size_t n)
            : offset(at), len(n)
        {
            std::memcpy(data.data(), src, n);
        }

        std::size_t offset;
        std::size_t len;
        std::array<std::byte, PcieConfig::kLineSize> data;
    };
    bool wc_active_ = false;
    std::size_t wc_line_ = 0;
    std::vector<WcStore> wc_stores_;

    /** Recycled posted-burst payload buffers (see AcquirePostedBuf). */
    std::vector<std::vector<std::byte>> posted_pool_;
};

/**
 * A SmartNIC core's view of the NIC DRAM (its own local memory).
 *
 * Each access suspends once, for its cost, so Read and Write return
 * frame-free awaiters (see sim/task.h): the cost is scheduled when the
 * caller suspends, and the bytes move when it resumes.
 */
class NicLocalMapping {
  public:
    NicLocalMapping(NicDram& dram, PteType type);

    /** Awaiter for one Read(). */
    struct [[nodiscard]] ReadOp {
        NicLocalMapping& map;
        std::size_t offset;
        void* dst;
        std::size_t n;
        bool tolerate_stale;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            map.Charge(n, h);
        }

        void await_resume() const;
    };

    /** Awaiter for one Write(). */
    struct [[nodiscard]] WriteOp {
        NicLocalMapping& map;
        std::size_t offset;
        const void* src;
        std::size_t n;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            map.Charge(n, h);
        }

        void await_resume() const;
    };

    /**
     * Local read; cost depends on UC vs WB mapping.
     *
     * @param tolerate_stale annotates optimistic polls that are safe
     *        against not-yet-drained host write-combining stores (the
     *        generation flag simply won't match yet); the coherence
     *        checker skips the unflushed-WC check on such reads.
     */
    ReadOp
    Read(std::size_t offset, void* dst, std::size_t n,
         bool tolerate_stale = false)
    {
        return ReadOp{*this, offset, dst, n, tolerate_stale};
    }

    /** Local write; visible to the host's next PCIe fetch immediately. */
    WriteOp
    Write(std::size_t offset, const void* src, std::size_t n)
    {
        return WriteOp{*this, offset, src, n};
    }

  private:
    /** Resumes @p h once an access of @p n bytes has taken its cost. */
    void
    Charge(std::size_t n, std::coroutine_handle<> h) const
    {
        dram_.Sim().ScheduleResume(AccessCost(n), h);
    }

    sim::DurationNs AccessCost(std::size_t n) const;

    NicDram& dram_;
    const PcieConfig& config_;
    PteType type_;
};

}  // namespace wave::pcie
