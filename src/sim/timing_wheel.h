/**
 * @file
 * Hierarchical timing wheel: the simulator's event queue.
 *
 * The discrete-event core executes pending events in ascending
 * (when, key, seq) order. A binary heap gives that order in O(log n)
 * per operation but with branchy comparisons and cache-hostile sift
 * paths; a calendar queue exploits the structure simulated workloads
 * actually have — most events land within a few microseconds of the
 * clock — to make both insert and pop O(1) in the common case.
 *
 * Three tiers, coarsening with distance from the clock:
 *
 *   near wheel   4096 one-nanosecond slots covering the current
 *                "page" (when >> 12). Each slot is an intrusive list
 *                of nodes sharing one timestamp, kept sorted by
 *                (key, seq); a fresh unkeyed insert always appends at
 *                the tail in O(1) because it carries the largest key
 *                (the kUnkeyed sentinel) and the largest seq yet
 *                issued. A 4096-bit occupancy bitmap finds the next
 *                populated slot with a couple of word scans.
 *
 *   far ring     4096 page-wide slots holding events whose page lies
 *                in (cur_page, cur_page + 4096] — up to ~16.8 ms
 *                ahead. Consecutive pages map to distinct slots, so
 *                each slot holds exactly one page's events as an
 *                unsorted list; order is imposed later, when the page
 *                is migrated into the near wheel by per-slot sorted
 *                insertion (total order on (key, seq) makes the
 *                result independent of list order).
 *
 *   overflow     a binary min-heap on (when, key, seq) for events
 *                beyond the far horizon. Rare by construction: only
 *                multi-millisecond timers land here.
 *
 * Nodes are pooled (free list over chunked arrays), so steady-state
 * push/pop performs zero heap allocations — alloc_test holds the
 * wheel to the same zero-alloc budget as the rest of the event loop.
 *
 * The pop order is bit-identical to the std::priority_queue this
 * replaced: determinism_test pins golden event-stream fingerprints
 * captured under the old queue and asserts the wheel reproduces them.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace wave::sim {

/**
 * One pending event: pooled, intrusively linked into wheel slots.
 *
 * The payload is either a coroutine to resume (the common event: a
 * Delay, a Cpu::Work, a sync wakeup) or a closure. A resume carries
 * only its handle, with no type-erased wrapper; a closure is moved
 * into the node once and invoked there. A pooled node holds neither.
 */
struct EventNode {
    TimeNs when{};
    std::uint64_t key = 0;  ///< explicit tie-break, or kUnkeyed
    std::uint64_t seq = 0;  ///< insertion sequence number
    EventNode* next = nullptr;
    std::coroutine_handle<> resume;  ///< set: resume it; fn is empty
    InlineFn fn;

    /** Sentinel key for events scheduled without a tie-break. */
    static constexpr std::uint64_t kUnkeyed = ~0ULL;
};

static_assert(sizeof(EventNode) <= 128,
              "an event node must fit in two cache lines");

/** Calendar event queue yielding (when, key, seq) ascending order. */
class TimingWheel {
  public:
    TimingWheel();
    ~TimingWheel();

    TimingWheel(const TimingWheel&) = delete;
    TimingWheel& operator=(const TimingWheel&) = delete;

    bool Empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t Size() const { return size_; }

    /**
     * Enqueues closure @p fn; assigns the event the next insertion
     * sequence number (the unkeyed FIFO tie-break and fingerprint
     * identity). The closure moves once, into its node.
     */
    void Push(TimeNs when, std::uint64_t key, InlineFn&& fn);

    /** Enqueues an unkeyed resume of @p h; sequenced like Push(). */
    void PushResume(TimeNs when, std::coroutine_handle<> h);

    /**
     * The minimum pending event, or nullptr if empty. Idempotent, but
     * not const: peeking advances the wheel's page cursor to the
     * page of the minimum (migrating far/overflow events inward), a
     * rotation that never changes the pop order.
     */
    EventNode* PeekMin();

    /**
     * Unlinks and returns the minimum pending event, or nullptr. The
     * caller owns the node until it hands it back to Recycle().
     */
    EventNode* PopMin();

    /**
     * PopMin() for a caller that just peeked: unlinks @p peeked, the
     * node PeekMin() returned, without peeking again. Asserts that
     * @p peeked is still the minimum (no earlier push came between).
     */
    EventNode* PopPeeked(EventNode* peeked);

    /**
     * Returns a popped node to the pool, dropping its coroutine handle
     * and destroying any closure, so a reused node never runs a stale
     * payload. Freed nodes are reused first (LIFO), while still warm.
     */
    void Recycle(EventNode* node);

    /** Discards (recycles) every pending event without running it. */
    void Clear();

  private:
    /** log2 of the near-wheel span: 4096 one-ns slots per page. */
    static constexpr int kNearBits = 12;
    static constexpr std::uint64_t kNearSlots = 1ull << kNearBits;
    static constexpr std::uint64_t kSlotMask = kNearSlots - 1;

    /** Far ring: one slot per page, covering 4096 pages (~16.8 ms). */
    static constexpr std::uint64_t kFarSlots = 4096;
    static constexpr std::uint64_t kFarMask = kFarSlots - 1;

    static constexpr std::size_t kBitmapWords = kNearSlots / 64;
    static constexpr std::size_t kFarBitmapWords = kFarSlots / 64;

    /** Pool growth quantum (cold path; free list covers steady state). */
    static constexpr std::size_t kChunkNodes = 256;

    /** Overflow-heap capacity pre-reserved at construction. */
    static constexpr std::size_t kHeapReserve = 1024;

    struct NearSlot {
        EventNode* head = nullptr;
        EventNode* tail = nullptr;
    };

    struct FarSlot {
        EventNode* head = nullptr;
        std::uint64_t page = 0;  ///< which page this slot currently holds
    };

    static std::uint64_t
    PageOf(TimeNs when)
    {
        return when.ns() >> kNearBits;
    }

    /**
     * Takes a pooled node and stamps it with (when, key, next seq);
     * the caller sets its payload and files it with PushNode().
     */
    EventNode* Stamp(TimeNs when, std::uint64_t key);

    /** Grows the pool by one chunk (cold path). */
    void Refill();

    /** Files a stamped node into the tier its page falls in. */
    void PushNode(EventNode* node);

    /** Sorted insert into the current page's slot for node->when. */
    void InsertNear(EventNode* node);

    /** First populated near slot at index >= @p from, or kNearSlots. */
    std::uint64_t FindNearFrom(std::uint64_t from) const;

    /**
     * Jumps to the smallest pending page beyond cur_page_, migrating
     * that page's events (far ring and/or overflow heap — the same
     * page can live in both) into the near wheel. Requires size_ > 0
     * with an empty near wheel.
     */
    void AdvancePage();

    /** Far-ring slot holding the smallest pending page, or kFarSlots. */
    std::uint64_t FindMinFarSlot() const;

    /**
     * Re-bases the wheel onto earlier @p page after the cursor ran
     * ahead of the clock into an idle gap and a new event landed in
     * it: every near-wheel and far-ring node is re-filed relative to
     * the new page. Rare and cold.
     */
    void RewindTo(std::uint64_t page);

    void HeapPush(EventNode* node);
    EventNode* HeapPop();

    std::vector<NearSlot> near_;
    std::vector<FarSlot> far_;
    std::array<std::uint64_t, kBitmapWords> near_bits_{};
    std::array<std::uint64_t, kFarBitmapWords> far_bits_{};
    std::vector<EventNode*> heap_;  ///< min-heap on (when, key, seq)
    std::uint64_t cur_page_ = 0;
    std::uint64_t near_cursor_ = 0;  ///< scan resumes at this slot
    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;
    EventNode* free_ = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> chunks_;
};

}  // namespace wave::sim
