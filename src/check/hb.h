/**
 * @file
 * Virtual-time happens-before race detector over simulated actors.
 *
 * The discrete-event simulator is single-threaded and deterministic, so
 * a pair of conflicting accesses that no protocol edge orders will
 * still execute in *some* fixed order — decided by `ScheduleKeyed`
 * tie-breaks or event-insertion luck, not by the protocol. The PR-1
 * determinism auditor makes such schedules reproducible; it cannot say
 * they are bugs. This detector can: it runs a vector-clock analysis
 * (FastTrack-style epochs) over the modelled execution contexts — host
 * CPUs, SmartNIC cores, the DMA engine, MSI-X delivery — and reports
 * any conflicting same-line access pair with no happens-before path as
 * a race, even though the run produced a stable answer.
 *
 * Happens-before edges come from the protocol's sanctioned
 * synchronization actions, reported by the instrumented endpoints:
 * generation-flag publication and consumption on MMIO/shm queue slots,
 * lazy consumed-counter updates, MSI-X deliveries, and lock
 * acquire/release (`sim::Resource`). Accesses by the same actor are
 * ordered by program order. Flag polls and counter reads are modelled
 * as the synchronization operations they are, not as data accesses, so
 * the optimistic (`tolerate_stale`) protocol reads never produce
 * false positives.
 *
 * Races are classified by simulated time: accesses at the *same*
 * timestamp are ordered purely by the event queue's tie-break
 * (kTieBreak); accesses at different timestamps with no HB path are
 * ordered only by this run's timing luck (kVirtualTime).
 *
 * Intentionally unordered accesses (e.g. diagnostic snapshots) are
 * annotated with AllowUnordered(), the analogue of the coherence
 * checker's tolerate_stale.
 */
// wave-domain: neutral
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/shadow.h"
#include "sim/actor.h"
#include "sim/time.h"

namespace wave::sim {
class Simulator;
}

namespace wave::check {

/** How the reported pair ended up ordered in this run. */
enum class RaceKind {
    /** Same timestamp: ordered only by the event-queue tie-break. */
    kTieBreak,
    /** Different timestamps, but no happens-before path: ordered only
        by this configuration's timing luck. */
    kVirtualTime,
};

const char* RaceKindName(RaceKind kind);

/** One side of a reported race. */
struct RaceAccess {
    const char* label = "?";  ///< e.g. "HostProducer::Send[payload]"
    const char* actor = "?";  ///< registered actor label
    bool is_write = false;
    std::size_t offset = 0;
    std::size_t size = 0;
    sim::TimeNs when{};
};

/** A conflicting access pair with no happens-before ordering. */
struct HbRace {
    RaceKind kind;
    std::size_t line;    ///< 64-byte line index within the region
    RaceAccess first;    ///< the earlier access (tie: the one on record)
    RaceAccess second;   ///< the later access that exposed the race

    /** One-line diagnostic, e.g. for test failure messages. */
    std::string Describe() const;
};

/** Aggregate instrumentation counters. */
struct HbStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t releases = 0;
    std::uint64_t acquires = 0;
    std::uint64_t allowed_unordered = 0;  ///< accesses skipped by annotation
};

/**
 * The vector-clock race detector.
 *
 * Regions are opaque tags (the instrumented layer passes the address of
 * the shared object); lines are 64 bytes, matching the PCIe model.
 * Sync variables are keyed by (object address, tag), so one queue can
 * carry an independent sync var per slot and one for its counter.
 *
 * Shadow state is dense and bounded (see check/shadow.h): each region
 * keeps a line array over its registered lines, and each sync object a
 * table of slots sized at registration, so memory does not grow with
 * the number of messages.
 */
class HbRaceDetector {
  public:
    static constexpr std::size_t kLineSize = 64;

    /**
     * The tag a ring's consumed counter is released and acquired
     * under. It keeps a slot of its own in the ring's sync table.
     */
    static constexpr std::uint64_t kCounterTag = ~0ULL;

    explicit HbRaceDetector(sim::Simulator& sim) : sim_(sim) {}

    HbRaceDetector(const HbRaceDetector&) = delete;
    HbRaceDetector& operator=(const HbRaceDetector&) = delete;

    /** Registers one execution context (label is a string literal). */
    sim::ActorId RegisterActor(const char* label);

    /**
     * Sizes the sync table of @p obj: tag t lives in slot t mod
     * @p slots, kCounterTag in one more. A ring registers its capacity,
     * so a slot is reused only when the producer laps it. An object
     * never registered gets one slot. Repeat calls must agree. The
     * table is allocated by the object's first release.
     */
    void RegisterSync(const void* obj, std::size_t slots);

    /**
     * Adds [offset, offset+n) of @p region to the extent of its line
     * array, which the first access allocates whole. An unregistered
     * region's array widens as accesses reach new lines.
     */
    void RegisterRegion(const void* region, std::size_t offset,
                        std::size_t n);

    // --- Instrumentation entry points ---

    /** Actor @p actor accessed [offset, offset+n) of @p region. */
    void OnAccess(sim::ActorId actor, const void* region,
                  std::size_t offset, std::size_t n, bool is_write,
                  const char* site);

    /**
     * Release edge: actor @p actor published through sync var
     * (@p obj, @p tag) — e.g. a generation-flag write, a consumed-
     * counter update, a lock release, an MSI-X send.
     */
    void OnRelease(sim::ActorId actor, const void* obj, std::uint64_t tag);

    /**
     * Acquire edge: actor @p actor observed sync var (@p obj, @p tag)
     * — e.g. a matching generation-flag poll, a counter refresh, a
     * lock acquire, an MSI-X delivery. When the tag's slot holds
     * another tag (never released, or lapped by a newer release) the
     * acquire joins nothing: the bounded table can add reports, never
     * hide one.
     */
    void OnAcquire(sim::ActorId actor, const void* obj, std::uint64_t tag);

    /**
     * Annotates [offset, offset+n) of @p region as intentionally
     * unordered: conflicting accesses there are counted, not reported.
     * Use for lines whose readers validate freshness another way.
     */
    void AllowUnordered(const void* region, std::size_t offset,
                        std::size_t n);

    // --- Results ---

    const std::vector<HbRace>& Races() const { return races_; }
    const HbStats& Stats() const { return stats_; }

    /** When true, the first race panics instead of recording. */
    void SetFailFast(bool on) { fail_fast_ = on; }

    /**
     * Drops all recorded races and shadow state (actors and registered
     * sizes persist).
     */
    void Clear();

  private:
    using VectorClock = std::vector<std::uint64_t>;

    /** A FastTrack epoch: (actor, that actor's clock at the access). */
    struct Epoch {
        sim::ActorId actor = sim::kNoActor;
        std::uint64_t clock = 0;
        const char* site = "?";
        std::size_t offset = 0;
        std::size_t size = 0;
        sim::TimeNs when{};
    };

    /** Shadow state of one 64-byte line. */
    struct LineState {
        Epoch last_write;
        std::vector<Epoch> reads;  ///< one per actor since last write
        bool allow_unordered = false;
    };

    /** One sync slot: the absolute tag released into it last. */
    struct SyncSlot {
        std::uint64_t tag = 0;
        bool live = false;  ///< a release stored @c tag's clock here
        VectorClock clock;
    };

    /** A sync object's slots: one per ring slot, then kCounterTag's. */
    struct SyncTable {
        std::size_t ring_slots = 1;   ///< set by RegisterSync
        std::vector<SyncSlot> slots;  ///< empty until the first release

        SyncSlot&
        For(std::uint64_t tag)
        {
            return tag == kCounterTag ? slots.back()
                                      : slots[tag % (slots.size() - 1)];
        }
    };

    static std::size_t LineOf(std::size_t offset)
    {
        return offset / kLineSize;
    }

    VectorClock& ClockOf(sim::ActorId actor);

    /** True when @p epoch happens-before @p actor's current view. */
    bool OrderedBefore(const Epoch& epoch, sim::ActorId actor);

    void Report(std::size_t line, const Epoch& prev, bool prev_is_write,
                const Epoch& current, bool current_is_write);

    sim::Simulator& sim_;
    sim::ActorRegistry actors_;
    std::vector<VectorClock> clocks_;  ///< indexed by actor id - 1
    ObjectTable<LineWindow<LineState>> lines_;
    ObjectTable<SyncTable> syncs_;
    std::vector<HbRace> races_;
    std::unordered_set<std::uint64_t> reported_;  ///< dedup keys
    HbStats stats_;
    bool fail_fast_ = false;
};

}  // namespace wave::check
