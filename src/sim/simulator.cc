// wave-domain: neutral
#include "sim/simulator.h"

#include <utility>

#include "sim/logging.h"

namespace wave::sim {

namespace {

/** Root frames are swept for completed processes this often. */
constexpr std::uint64_t kSweepInterval = 8192;

}  // namespace

Simulator::~Simulator()
{
    // Drop pending events first: their resume handles, and closures
    // that capture handles, point at frames owned by roots_ (directly
    // or through nested Task ownership) that are destroyed below.
    // Clearing recycles every node, which nulls its handle, and nothing
    // pending runs after this point, so no dangling resume can occur.
    events_.Clear();
    SweepRoots(/*all=*/true);
}

void
Simulator::AuditInsertion(TimeNs when, std::uint64_t key)
{
    std::uint32_t& pending = pending_at_[when];
    if (pending > 0 && key == EventNode::kUnkeyed) {
        ++unkeyed_tie_insertions_;
    }
    ++pending;
}

void
Simulator::AuditExecution(TimeNs when)
{
    auto it = pending_at_.find(when);
    if (it != pending_at_.end() && --it->second == 0) {
        pending_at_.erase(it);
    }
}

// The schedule/step core below runs once per simulated event — the
// hottest code in the tree. The destructor, the tie audit and
// SweepRoots stay outside the region: they run at teardown, only in
// audited runs, or every kSweepInterval events.
// wave-hot: begin
void
Simulator::Schedule(DurationNs delay, InlineFn&& fn)
{
    ScheduleAt(now_ + delay, std::move(fn));
}

void
Simulator::ScheduleAt(TimeNs when, InlineFn&& fn)
{
    Admit(when, EventNode::kUnkeyed);
    events_.Push(when, EventNode::kUnkeyed, std::move(fn));
}

void
Simulator::ScheduleResume(DurationNs delay, std::coroutine_handle<> h)
{
    const TimeNs when = now_ + delay;
    Admit(when, EventNode::kUnkeyed);
    events_.PushResume(when, h);
}

void
Simulator::ScheduleKeyed(DurationNs delay, std::uint64_t key,
                         InlineFn&& fn)
{
    ScheduleAtKeyed(now_ + delay, key, std::move(fn));
}

void
Simulator::ScheduleAtKeyed(TimeNs when, std::uint64_t key,
                           InlineFn&& fn)
{
    WAVE_ASSERT(key != EventNode::kUnkeyed,
                "the all-ones key is reserved for unkeyed events");
    Admit(when, key);
    events_.Push(when, key, std::move(fn));
}

void
Simulator::Admit(TimeNs when, std::uint64_t key)
{
    WAVE_ASSERT(when >= now_, "scheduling into the past");
    if (tie_audit_) AuditInsertion(when, key);
}

void
Simulator::Spawn(Task<> task)
{
    auto handle = task.Release();
    WAVE_ASSERT(handle != nullptr, "spawning an empty task");
    // Reap completed processes incrementally: spawn-per-work-item
    // models (one process per async DMA transfer, say) then return dead
    // root frames to the frame pool at spawn rate — and release the
    // resources those frames hold — instead of waiting out the periodic
    // sweep. The two-unit budget counts *distinct slots examined*, not
    // loop iterations: erasing a done root shifts its successor into
    // the same slot, and that successor is examined for free (budgeting
    // the erase itself would let a run of adjacent done roots starve
    // the scan of credit and outlive several spawns). Reaping destroys
    // frames but schedules nothing, so it never perturbs the event
    // stream the determinism fingerprint hashes.
    for (int slots_examined = 0; slots_examined < 2 && !roots_.empty();
         ++slots_examined) {
        if (reap_cursor_ >= roots_.size()) reap_cursor_ = 0;
        while (reap_cursor_ < roots_.size() &&
               roots_[reap_cursor_].done()) {
            DestroyRoot(roots_[reap_cursor_]);
            roots_.erase(roots_.begin() +
                         static_cast<std::ptrdiff_t>(reap_cursor_));
        }
        if (reap_cursor_ < roots_.size()) ++reap_cursor_;
    }
    // wave-analyze: allow(W101 roots_ keeps its capacity across sweeps, so steady-state spawn/sweep cycles reuse freed slots)
    roots_.push_back(handle);
    ScheduleResume(0, handle);
}

void
Simulator::Execute(EventNode* node)
{
    WAVE_ASSERT(node->when >= now_, "event queue went backwards");
    now_ = node->when;
    if (tie_audit_) AuditExecution(node->when);
    // Fold the executed event into the determinism fingerprint. Keyed
    // events contribute their explicit key so the hash is insensitive
    // to insertion-order shuffles; unkeyed events contribute their
    // insertion sequence number, which identical runs reproduce. The
    // payload (resume or closure) does not enter the fingerprint.
    const bool keyed = node->key != EventNode::kUnkeyed;
    event_hash_ = check::FnvWord(event_hash_, node->when.ns());
    event_hash_ = check::FnvWord(event_hash_, keyed ? node->key : node->seq);
    event_hash_ = check::FnvByte(event_hash_, keyed ? 1 : 0);
    if (node->resume) {
        // Recycle before resuming: the process usually suspends again
        // at once (a Delay, a Work), and its next event takes this
        // node back off the free list while it is still warm.
        const std::coroutine_handle<> h = node->resume;
        events_.Recycle(node);
        h.resume();
    } else {
        // The closure runs where it was stored; its node is recycled
        // (destroying the captures) only once it returns, so the
        // closure never moves out of the node.
        node->fn();
        events_.Recycle(node);
    }
    if (++events_executed_ % kSweepInterval == 0) {
        SweepRoots(/*all=*/false);
    }
}

bool
Simulator::Step()
{
    EventNode* node = events_.PopMin();
    if (node == nullptr) return false;
    Execute(node);
    return true;
}

void
Simulator::Run()
{
    stopped_ = false;
    while (!stopped_ && Step()) {
    }
}

TimeNs
Simulator::RunFor(DurationNs duration)
{
    RunUntil(now_ + duration);
    return now_;
}

void
Simulator::RunUntil(TimeNs when)
{
    stopped_ = false;
    while (!stopped_) {
        EventNode* head = events_.PeekMin();
        if (head == nullptr || head->when > when) break;
        Execute(events_.PopPeeked(head));
    }
    if (!stopped_ && when > now_) {
        now_ = when;
    }
}
// wave-hot: end

void
Simulator::DestroyRoot(std::coroutine_handle<Task<>::promise_type> root)
{
    if (root.done() && root.promise().exception) {
        // A detached process died with an exception nobody can
        // observe; surface it loudly instead of losing it.
        try {
            std::rethrow_exception(root.promise().exception);
        } catch (const std::exception& e) {
            Panic("root process threw: %s", e.what());
        } catch (...) {
            Panic("root process threw a non-std exception");
        }
    }
    root.destroy();
}

void
Simulator::SweepRoots(bool all)
{
    auto it = roots_.begin();
    while (it != roots_.end()) {
        if (all || it->done()) {
            DestroyRoot(*it);
            it = roots_.erase(it);
        } else {
            ++it;
        }
    }
}

}  // namespace wave::sim
