// wave-domain: neutral
#include "sim/timing_wheel.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.h"

namespace wave::sim {

namespace {

/** Heap comparator: a pops after b — strict descending (when,key,seq). */
bool
HeapAfter(const EventNode* a, const EventNode* b)
{
    if (a->when.ns() != b->when.ns()) return a->when.ns() > b->when.ns();
    if (a->key != b->key) return a->key > b->key;
    return a->seq > b->seq;
}

/** Within one slot (one timestamp): a runs before b, on (key, seq). */
bool
OrdersBefore(const EventNode* a, const EventNode* b)
{
    return a->key < b->key || (a->key == b->key && a->seq < b->seq);
}

}  // namespace

TimingWheel::TimingWheel() : near_(kNearSlots), far_(kFarSlots)
{
    heap_.reserve(kHeapReserve);
}

TimingWheel::~TimingWheel() { Clear(); }

// Push and pop run once per simulated event — the hottest code in the
// tree. Pool refills, rewinds, and teardown stay outside the region:
// they are rare by construction.
// wave-hot: begin
void
TimingWheel::Push(TimeNs when, std::uint64_t key, InlineFn&& fn)
{
    EventNode* node = Stamp(when, key);
    node->fn = std::move(fn);
    PushNode(node);
}

void
TimingWheel::PushResume(TimeNs when, std::coroutine_handle<> h)
{
    EventNode* node = Stamp(when, EventNode::kUnkeyed);
    node->resume = h;
    PushNode(node);
}

EventNode*
TimingWheel::Stamp(TimeNs when, std::uint64_t key)
{
    if (free_ == nullptr) Refill();
    EventNode* node = free_;
    free_ = node->next;
    node->when = when;
    node->key = key;
    node->seq = next_seq_++;
    ++size_;
    return node;
}

void
TimingWheel::PushNode(EventNode* node)
{
    const std::uint64_t page = PageOf(node->when);
    if (page == cur_page_) {
        InsertNear(node);
        return;
    }
    if (page < cur_page_) {
        // The cursor ran ahead of the clock across an idle gap (a
        // peek advanced it to the then-minimum page) and this event
        // lands inside the gap. Re-base the wheel, then file normally.
        RewindTo(page);
        InsertNear(node);
        return;
    }
    if (page - cur_page_ <= kFarSlots) {
        // Pages (cur_page_, cur_page_ + 4096] map to distinct ring
        // slots, so each slot holds one page; list order is free
        // (migration re-sorts per near slot).
        const std::uint64_t f = page & kFarMask;
        FarSlot& slot = far_[f];
        node->next = slot.head;
        slot.head = node;
        slot.page = page;
        far_bits_[f >> 6] |= 1ull << (f & 63);
        return;
    }
    HeapPush(node);
}

void
TimingWheel::InsertNear(EventNode* node)
{
    const std::uint64_t s = node->when.ns() & kSlotMask;
    NearSlot& slot = near_[s];
    if (slot.head == nullptr) {
        near_bits_[s >> 6] |= 1ull << (s & 63);
        // A peek may have advanced the scan cursor past this slot (the
        // then-minimum sat later in the page); pull it back so the new
        // minimum is found.
        if (s < near_cursor_) near_cursor_ = s;
        node->next = nullptr;
        slot.head = node;
        slot.tail = node;
        return;
    }
    // Tail append when the node orders after the current tail — always
    // true for a fresh unkeyed push (kUnkeyed is the maximum key and a
    // fresh seq exceeds every pooled node's), which is the hot case.
    // An occupied slot already has its bit set, and the scan cursor
    // never passes it.
    if (OrdersBefore(slot.tail, node)) {
        node->next = nullptr;
        slot.tail->next = node;
        slot.tail = node;
        return;
    }
    // Keyed or migrated nodes: sorted insert on (key, seq), so keyed
    // events at one timestamp run in key order no matter how the
    // insertions were interleaved. Slot lists are short (events
    // sharing one nanosecond), so the scan is a few links, and it
    // stops before the tail, which orders after the node.
    EventNode** link = &slot.head;
    while (OrdersBefore(*link, node)) {
        link = &(*link)->next;
    }
    node->next = *link;
    *link = node;
}

EventNode*
TimingWheel::PeekMin()
{
    if (size_ == 0) return nullptr;
    for (;;) {
        const std::uint64_t s = FindNearFrom(near_cursor_);
        if (s < kNearSlots) {
            near_cursor_ = s;
            return near_[s].head;
        }
        // Near wheel drained; rotate to the next pending page.
        AdvancePage();
    }
}

EventNode*
TimingWheel::PopMin()
{
    EventNode* node = PeekMin();
    return node != nullptr ? PopPeeked(node) : nullptr;
}

EventNode*
TimingWheel::PopPeeked(EventNode* peeked)
{
    NearSlot& slot = near_[near_cursor_];
    WAVE_ASSERT(slot.head == peeked,
                "popping a node that is no longer the minimum");
    slot.head = peeked->next;
    if (slot.head == nullptr) {
        slot.tail = nullptr;
        near_bits_[near_cursor_ >> 6] &= ~(1ull << (near_cursor_ & 63));
    }
    --size_;
    return peeked;
}

void
TimingWheel::Recycle(EventNode* node)
{
    node->resume = nullptr;
    node->fn = InlineFn{};  // destroy any captured state now
    node->next = free_;
    free_ = node;
}

std::uint64_t
TimingWheel::FindNearFrom(std::uint64_t from) const
{
    std::uint64_t w = from >> 6;
    std::uint64_t bits = near_bits_[w] & (~0ull << (from & 63));
    for (;;) {
        if (bits != 0) {
            return (w << 6) +
                   static_cast<std::uint64_t>(std::countr_zero(bits));
        }
        if (++w >= kBitmapWords) return kNearSlots;
        bits = near_bits_[w];
    }
}

void
TimingWheel::AdvancePage()
{
    const std::uint64_t far_slot = FindMinFarSlot();
    const bool have_far = far_slot < kFarSlots;
    const bool have_heap = !heap_.empty();
    WAVE_ASSERT(have_far || have_heap,
                "advancing an empty wheel (size accounting broken)");
    const std::uint64_t far_page = have_far ? far_[far_slot].page : 0;
    const std::uint64_t heap_page =
        have_heap ? PageOf(heap_[0]->when) : 0;
    std::uint64_t next;
    if (have_far && (!have_heap || far_page <= heap_page)) {
        next = far_page;
    } else {
        next = heap_page;
    }
    cur_page_ = next;
    near_cursor_ = 0;
    // Drain BOTH tiers: the same page can sit in the ring (events
    // inserted while it was inside the horizon) and in the heap
    // (events inserted while it was beyond it).
    if (have_far && far_page == next) {
        FarSlot& fs = far_[far_slot];
        EventNode* n = fs.head;
        fs.head = nullptr;
        far_bits_[far_slot >> 6] &= ~(1ull << (far_slot & 63));
        while (n != nullptr) {
            EventNode* after = n->next;
            InsertNear(n);
            n = after;
        }
    }
    while (!heap_.empty() && PageOf(heap_[0]->when) == next) {
        InsertNear(HeapPop());
    }
}

std::uint64_t
TimingWheel::FindMinFarSlot() const
{
    // Circular scan from the slot after cur_page_'s: slots in that
    // order hold pages cur_page_+1 .. cur_page_+4096 ascending, so the
    // first populated slot holds the smallest pending far page.
    const std::uint64_t start = (cur_page_ + 1) & kFarMask;
    const std::uint64_t w0 = start >> 6;
    for (std::size_t n = 0; n <= kFarBitmapWords; ++n) {
        const std::uint64_t w = (w0 + n) & (kFarBitmapWords - 1);
        std::uint64_t bits = far_bits_[w];
        if (n == 0) {
            bits &= ~0ull << (start & 63);
        } else if (n == kFarBitmapWords) {
            // Wrapped back to the start word: only the bits below the
            // start position remain unexamined.
            bits &= (start & 63) != 0 ? ~(~0ull << (start & 63)) : 0;
        }
        if (bits != 0) {
            return (w << 6) +
                   static_cast<std::uint64_t>(std::countr_zero(bits));
        }
    }
    return kFarSlots;
}

void
TimingWheel::HeapPush(EventNode* node)
{
    // wave-analyze: allow(W101 heap_ reserves at construction and keeps its capacity; growth beyond kHeapReserve pending far-future timers is setup-scale, not per-event)
    heap_.push_back(node);
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
}

EventNode*
TimingWheel::HeapPop()
{
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
    EventNode* node = heap_.back();
    heap_.pop_back();
    return node;
}
// wave-hot: end

void
TimingWheel::Refill()
{
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    EventNode* chunk = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
        chunk[i].next = free_;
        free_ = &chunk[i];
    }
}

void
TimingWheel::RewindTo(std::uint64_t page)
{
    // Collect every node parked in the near wheel (all of later page
    // cur_page_) and the whole far ring — rebasing shrinks the horizon
    // below some ring pages, which would break the one-page-per-slot
    // invariant if they stayed — then re-file them against the new
    // page. The overflow heap is position-independent and stays put.
    EventNode* collected = nullptr;
    for (std::uint64_t s = FindNearFrom(0); s < kNearSlots;
         s = s + 1 < kNearSlots ? FindNearFrom(s + 1) : kNearSlots) {
        NearSlot& slot = near_[s];
        EventNode* n = slot.head;
        while (n != nullptr) {
            EventNode* after = n->next;
            n->next = collected;
            collected = n;
            n = after;
        }
        slot.head = nullptr;
        slot.tail = nullptr;
    }
    near_bits_.fill(0);
    for (std::uint64_t f = 0; f < kFarSlots; ++f) {
        EventNode* n = far_[f].head;
        while (n != nullptr) {
            EventNode* after = n->next;
            n->next = collected;
            collected = n;
            n = after;
        }
        far_[f].head = nullptr;
    }
    far_bits_.fill(0);
    cur_page_ = page;
    near_cursor_ = 0;
    while (collected != nullptr) {
        EventNode* after = collected->next;
        // Every collected node's page exceeds the new cur_page_, so
        // re-filing lands in the far ring or heap — never back here.
        PushNode(collected);
        collected = after;
    }
}

void
TimingWheel::Clear()
{
    while (EventNode* node = PopMin()) {
        Recycle(node);
    }
}

}  // namespace wave::sim
