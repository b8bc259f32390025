// wave-domain: neutral
#include "check/hb.h"

#include <algorithm>
#include <cstdio>

#include "check/fnv.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace wave::check {

const char*
RaceKindName(RaceKind kind)
{
    switch (kind) {
        case RaceKind::kTieBreak: return "tie-break-race";
        case RaceKind::kVirtualTime: return "virtual-time-race";
    }
    return "?";
}

std::string
HbRace::Describe() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s on line %zu: %s %s by %s [%zu,+%zu)@%llu ns is unordered "
        "with %s %s by %s [%zu,+%zu)@%llu ns",
        RaceKindName(kind), line, second.is_write ? "write" : "read",
        second.label, second.actor, second.offset, second.size,
        static_cast<unsigned long long>(second.when.ns()),
        first.is_write ? "write" : "read", first.label, first.actor,
        first.offset, first.size,
        static_cast<unsigned long long>(first.when.ns()));
    return buf;
}

sim::ActorId
HbRaceDetector::RegisterActor(const char* label)
{
    const sim::ActorId id = actors_.Register(label);
    clocks_.emplace_back();
    return id;
}

void
HbRaceDetector::RegisterSync(const void* obj, std::size_t slots)
{
    WAVE_ASSERT(slots > 0, "a sync table needs at least one slot");
    SyncTable& table = syncs_.Of(obj);
    WAVE_ASSERT(table.slots.empty() || table.ring_slots == slots,
                "sync object sized with %zu slots, then registered with %zu",
                table.ring_slots, slots);
    table.ring_slots = slots;
}

void
HbRaceDetector::RegisterRegion(const void* region, std::size_t offset,
                               std::size_t n)
{
    if (n == 0) return;
    lines_.Of(region).Cover(LineOf(offset), LineOf(offset + n - 1));
}

HbRaceDetector::VectorClock&
HbRaceDetector::ClockOf(sim::ActorId actor)
{
    WAVE_ASSERT(actor != sim::kNoActor && actor <= clocks_.size(),
                "access stamped with an unregistered actor id %u", actor);
    VectorClock& vc = clocks_[actor - 1];
    if (vc.size() < clocks_.size()) vc.resize(clocks_.size(), 0);
    // An actor's own clock starts at 1: other actors' views start at 0,
    // so a first-epoch access (clock 1) is NOT ordered-before an actor
    // that never synchronized with it. At 0/0 the `>=` test would call
    // every initial access ordered and miss first-access races.
    if (vc[actor - 1] == 0) vc[actor - 1] = 1;
    return vc;
}

bool
HbRaceDetector::OrderedBefore(const Epoch& epoch, sim::ActorId actor)
{
    if (epoch.actor == actor) return true;  // program order
    const VectorClock& vc = ClockOf(actor);
    const std::size_t index = epoch.actor - 1;
    return index < vc.size() && vc[index] >= epoch.clock;
}

void
HbRaceDetector::OnAccess(sim::ActorId actor, const void* region,
                         std::size_t offset, std::size_t n, bool is_write,
                         const char* site)
{
    if (is_write) {
        stats_.writes += 1;
    } else {
        stats_.reads += 1;
    }
    if (n == 0) return;
    VectorClock& vc = ClockOf(actor);
    const std::uint64_t clock = vc[actor - 1];
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    LineWindow<LineState>& window = lines_.Of(region);
    for (std::size_t line = first; line <= last; ++line) {
        LineState& state = window.At(line);
        const Epoch current{actor, clock, site, offset, n, sim_.Now()};
        if (state.allow_unordered) {
            stats_.allowed_unordered += 1;
        } else {
            if (state.last_write.actor != sim::kNoActor &&
                !OrderedBefore(state.last_write, actor)) {
                Report(line, state.last_write, /*prev_is_write=*/true,
                       current, is_write);
            }
            if (is_write) {
                for (const Epoch& read : state.reads) {
                    if (!OrderedBefore(read, actor)) {
                        Report(line, read, /*prev_is_write=*/false,
                               current, is_write);
                    }
                }
            }
        }
        if (is_write) {
            state.last_write = current;
            state.reads.clear();
        } else {
            auto it = std::find_if(
                state.reads.begin(), state.reads.end(),
                [actor](const Epoch& e) { return e.actor == actor; });
            if (it != state.reads.end()) {
                *it = current;
            } else {
                state.reads.push_back(current);
            }
        }
    }
}

void
HbRaceDetector::OnRelease(sim::ActorId actor, const void* obj,
                          std::uint64_t tag)
{
    stats_.releases += 1;
    VectorClock& vc = ClockOf(actor);
    SyncTable& table = syncs_.Of(obj);
    if (table.slots.empty()) table.slots.resize(table.ring_slots + 1);
    SyncSlot& slot = table.For(tag);
    if (!slot.live || slot.tag != tag) {
        // A new sync var (or one lapping the slot's old tag) starts
        // from nothing and reuses the slot's clock storage.
        std::fill(slot.clock.begin(), slot.clock.end(), 0);
        slot.tag = tag;
        slot.live = true;
    }
    VectorClock& sync = slot.clock;
    if (sync.size() < vc.size()) sync.resize(vc.size(), 0);
    for (std::size_t i = 0; i < vc.size(); ++i) {
        sync[i] = std::max(sync[i], vc[i]);
    }
    // Advance the actor's own clock so work after the release is not
    // ordered before acquirers of this (now-frozen) sync state.
    vc[actor - 1] += 1;
}

void
HbRaceDetector::OnAcquire(sim::ActorId actor, const void* obj,
                          std::uint64_t tag)
{
    stats_.acquires += 1;
    SyncTable* table = syncs_.Find(obj);
    if (table == nullptr || table->slots.empty()) return;
    const SyncSlot& slot = table->For(tag);
    // Nothing released under this tag yet, or a newer tag lapped it.
    if (!slot.live || slot.tag != tag) return;
    VectorClock& vc = ClockOf(actor);
    const VectorClock& sync = slot.clock;
    if (vc.size() < sync.size()) vc.resize(sync.size(), 0);
    for (std::size_t i = 0; i < sync.size(); ++i) {
        vc[i] = std::max(vc[i], sync[i]);
    }
}

void
HbRaceDetector::AllowUnordered(const void* region, std::size_t offset,
                               std::size_t n)
{
    if (n == 0) return;
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    LineWindow<LineState>& window = lines_.Of(region);
    for (std::size_t line = first; line <= last; ++line) {
        window.At(line).allow_unordered = true;
    }
}

void
HbRaceDetector::Report(std::size_t line, const Epoch& prev,
                       bool prev_is_write, const Epoch& current,
                       bool current_is_write)
{
    // One report per unique (line, site pair, prior-access time): a
    // polling loop re-hitting one racy line produces one report.
    std::uint64_t key = kFnvOffsetBasis;
    key = FnvWord(key, line);
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(prev.site));
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(current.site));
    key = FnvWord(key, prev.when.ns());
    if (!reported_.insert(key).second) return;

    const RaceKind kind = prev.when == current.when
                              ? RaceKind::kTieBreak
                              : RaceKind::kVirtualTime;
    HbRace race;
    race.kind = kind;
    race.line = line;
    race.first = RaceAccess{prev.site, actors_.LabelOf(prev.actor),
                            prev_is_write, prev.offset, prev.size,
                            prev.when};
    race.second = RaceAccess{current.site, actors_.LabelOf(current.actor),
                             current_is_write, current.offset,
                             current.size, current.when};
    races_.push_back(race);
    const std::string what = races_.back().Describe();
    if (fail_fast_) {
        sim::Panic("virtual-time race: %s", what.c_str());
    }
    sim::Warn("virtual-time race: %s", what.c_str());
}

void
HbRaceDetector::Clear()
{
    for (VectorClock& vc : clocks_) {
        std::fill(vc.begin(), vc.end(), 0);
    }
    lines_.ForEach([](LineWindow<LineState>& window) { window.Reset(); });
    syncs_.ForEach([](SyncTable& table) {
        for (SyncSlot& slot : table.slots) {
            slot.live = false;
            std::fill(slot.clock.begin(), slot.clock.end(), 0);
        }
    });
    races_.clear();
    reported_.clear();
    stats_ = HbStats{};
}

}  // namespace wave::check
