/**
 * @file
 * Cross-domain coherence checker for the simulated PCIe fabric.
 *
 * Wave's correctness argument rests on every host<->NIC state exchange
 * going through the modelled PCIe paths with explicit software
 * coherence: a host that caches a write-through line must clflush it
 * before trusting bytes the NIC (or the DMA engine) wrote afterwards,
 * and a NIC that consumes host data must never observe a line whose
 * stores are still sitting in the host's write-combining buffer.
 *
 * Nothing in the type system enforces this — a policy change can
 * silently read a line that is dirty in the other clock domain and the
 * generation-flag protocol usually (but not always) hides the damage.
 * This checker is a happens-before detector for the simulated hardware,
 * in the spirit of TSan: the access-path models report every read,
 * write, cache fill/drop, WC buffer/drain, DMA landing, and ordering
 * point (clflush, sfence, DMA completion, MSI-X delivery, txn commit
 * barrier) to an attached checker, which keeps per-64-byte-line shadow
 * state and records a Violation — with *both* access sites — whenever
 *
 *   1. a host cache hit serves a line the other domain has written
 *      since the fill, with no intervening clflush/invalidate
 *      ("stale cached read"), or
 *   2. the NIC reads a line whose host write-combining stores have not
 *      been drained by an sfence ("unflushed WC read").
 *
 * Protocol paths that are *designed* to tolerate bounded staleness
 * (optimistic generation-flag polls, lazy consumed counters) annotate
 * their reads as stale-tolerant, exactly like TSan benign-race
 * annotations; everything else is checked strictly.
 *
 * The checker is attached at runtime (WaveRuntime does it automatically
 * when built with WAVE_CHECK_ENABLED) and all instrumentation compiles
 * away when the WAVE_CHECK CMake option is OFF.
 */
// wave-domain: neutral
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/shadow.h"
#include "sim/time.h"

namespace wave::sim {
class Simulator;
}

namespace wave::check {

/** Which clock domain performed an access. */
enum class Domain { kHost, kNic, kDma };

/** Human-readable domain name. */
const char* DomainName(Domain domain);

/**
 * One side of a reported race.
 *
 * @note @p label must point at storage that outlives the checker
 *       (instrumentation sites pass string literals), keeping the
 *       per-access cost to a pointer copy.
 */
struct AccessSite {
    const char* label = "?";  ///< e.g. "HostMmioMapping::Read[WT]"
    Domain domain = Domain::kHost;
    std::size_t offset = 0;  ///< byte offset of the access
    std::size_t size = 0;    ///< bytes accessed
    sim::TimeNs when{};    ///< simulated time of the access
};

/** What kind of coherence rule a violation broke. */
enum class ViolationKind {
    /** Host cache hit on a line the NIC/DMA dirtied since the fill. */
    kStaleCachedRead,
    /** NIC read of a line with undrained host write-combining stores. */
    kUnflushedWcRead,
};

/** A detected cross-domain coherence race, with both access sites. */
struct Violation {
    ViolationKind kind;
    std::size_t line;  ///< 64-byte line index within the region
    AccessSite read;   ///< the racing read
    AccessSite write;  ///< the conflicting cross-domain write

    /** One-line diagnostic, e.g. for test failure messages. */
    std::string Describe() const;
};

/** Aggregate instrumentation counters (cheap sanity metrics). */
struct CheckerStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t cache_fills = 0;
    std::uint64_t cache_drops = 0;
    std::uint64_t wc_buffered = 0;
    std::uint64_t wc_drains = 0;
    std::uint64_t dma_writes = 0;
    std::uint64_t ordering_points = 0;
    std::uint64_t shm_accesses = 0;
    std::uint64_t tolerated_stale_reads = 0;
};

/**
 * The coherence race detector.
 *
 * Regions are identified by an opaque tag (the instrumented layer
 * passes the address of its pcie::MemoryRegion), so this library does
 * not depend on the pcie model. Line granularity is 64 bytes, matching
 * pcie::PcieConfig::kLineSize. Line state lives in one dense array per
 * region spanning its registered windows (see check/shadow.h).
 */
class CoherenceChecker {
  public:
    static constexpr std::size_t kLineSize = 64;

    explicit CoherenceChecker(sim::Simulator& sim) : sim_(sim) {}

    CoherenceChecker(const CoherenceChecker&) = delete;
    CoherenceChecker& operator=(const CoherenceChecker&) = delete;

    /**
     * Adds the mapped window [offset, offset+n) of @p region to the
     * extent of its line array. Called once per window at setup; the
     * first hook that stores state allocates the whole array, which
     * then never grows.
     */
    void RegisterWindow(const void* region, std::size_t offset,
                        std::size_t n);

    // --- Instrumentation entry points (called by the models) ---

    /** A domain wrote [offset, offset+n) directly to the region. */
    void OnWrite(const void* region, Domain domain, std::size_t offset,
                 std::size_t n, const char* site);

    /**
     * A domain read [offset, offset+n).
     *
     * @param from_host_cache true when served from the host WT cache
     *        (only cache hits can observe stale bytes).
     * @param tolerate_stale annotates protocol reads that validate the
     *        data another way (generation flags); stale hits are
     *        counted but not reported.
     */
    void OnRead(const void* region, Domain domain, std::size_t offset,
                std::size_t n, bool from_host_cache, bool tolerate_stale,
                const char* site);

    /** The host cache filled @p line from the region. */
    void OnCacheFill(const void* region, std::size_t line);

    /** The host cache dropped @p line (clflush or hw invalidate). */
    void OnCacheDrop(const void* region, std::size_t line);

    /** Host stores to [offset, offset+n) parked in the WC buffer. */
    void OnWcBuffered(const void* region, std::size_t offset,
                      std::size_t n, const char* site);

    /** An sfence drained the buffered stores at [offset, offset+n). */
    void OnWcDrained(const void* region, std::size_t offset,
                     std::size_t n);

    /** The DMA engine landed @p n bytes at @p offset in the region. */
    void OnDmaWrite(const void* region, std::size_t offset, std::size_t n,
                    const char* site);

    /** An ordering point executed (msix, txn-commit, dma-completion). */
    void OnOrderingPoint(const char* what);

    /** Coherent shared-memory traffic (counted, never racy). */
    void OnShmAccess(std::size_t bytes);

    // --- Results ---

    const std::vector<Violation>& Violations() const
    {
        return violations_;
    }
    const CheckerStats& Stats() const { return stats_; }

    /** When true, the first violation panics instead of recording. */
    void SetFailFast(bool on) { fail_fast_ = on; }

    /** Drops all recorded violations and line state (windows persist). */
    void Clear();

  private:
    /** Shadow state for one 64-byte line of one region. */
    struct LineState {
        bool host_cached = false;
        bool stale = false;       ///< remote write since the last fill
        bool wc_pending = false;  ///< host WC stores not yet drained
        AccessSite last_remote_write;
        AccessSite last_wc_store;
    };

    using Window = LineWindow<LineState>;

    static std::size_t LineOf(std::size_t offset)
    {
        return offset / kLineSize;
    }

    void RecordRemoteWrite(const void* region, std::size_t offset,
                           std::size_t n, const AccessSite& site);
    void Report(ViolationKind kind, std::size_t line,
                const AccessSite& read, const AccessSite& write);

    sim::Simulator& sim_;
    ObjectTable<Window> lines_;
    std::vector<Violation> violations_;
    std::unordered_set<std::uint64_t> reported_;  ///< dedup keys
    CheckerStats stats_;
    bool fail_fast_ = false;
};

}  // namespace wave::check
