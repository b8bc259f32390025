/**
 * @file
 * The discrete-event simulation kernel.
 *
 * The Simulator owns a time-ordered event queue and the set of root
 * coroutine processes spawned into it. Components schedule callbacks at
 * future simulated times; processes suspend on awaitables (Delay, sync
 * primitives, hardware-model operations) whose resumptions are themselves
 * events. Events at equal timestamps run in FIFO schedule order, so runs
 * are fully deterministic for a fixed seed.
 *
 * Determinism auditing (wave::check): the simulator folds every executed
 * event into a rolling FNV-1a fingerprint — EventHash() — that two runs
 * of the same configuration must reproduce bit-for-bit. Events whose
 * same-timestamp order must not depend on insertion order can carry an
 * explicit tie-break key (ScheduleKeyed/ScheduleAtKeyed): keyed events
 * at one timestamp execute in key order regardless of how they were
 * inserted, and the fingerprint folds the key instead of the insertion
 * sequence number. EnableTieAudit() additionally counts unkeyed events
 * inserted at a timestamp that already has pending events — the
 * situations where execution order silently depends on schedule order.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <vector>

#include "check/fnv.h"
#include "sim/inline_fn.h"
#include "sim/task.h"
#include "sim/time.h"
#include "sim/timing_wheel.h"

namespace wave::sim {

/** Discrete-event simulator: event queue + process registry + clock. */
class Simulator {
  public:
    Simulator() = default;
    ~Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    TimeNs Now() const { return now_; }

    /**
     * Schedules @p fn to run @p delay nanoseconds from now.
     *
     * The closure is stored in an InlineFn: captures up to 48 bytes
     * ride inline with the event and the hot path never touches the
     * heap (std::function arguments still convert). The InlineFn is
     * taken by reference down to the queue and moved once, into its
     * event node, where it later runs.
     */
    void Schedule(DurationNs delay, InlineFn&& fn);

    /** Schedules @p fn at absolute time @p when (must be >= Now()). */
    void ScheduleAt(TimeNs when, InlineFn&& fn);

    /**
     * Schedules a resume of coroutine @p h @p delay nanoseconds from
     * now: an unkeyed event, ordered and fingerprinted exactly like
     * Schedule(delay, [h] { h.resume(); }), but the event node carries
     * the handle itself and Step() resumes it directly. Awaitables
     * that park the calling coroutine for a fixed cost use this.
     */
    void ScheduleResume(DurationNs delay, std::coroutine_handle<> h);

    /**
     * Schedules @p fn with an explicit same-timestamp tie-break key.
     *
     * Keyed events at one timestamp execute in ascending key order (key
     * ties fall back to insertion order) no matter how the insertions
     * were interleaved, and the event-stream fingerprint folds the key
     * instead of the insertion sequence number — so a component whose
     * insertion order is not itself deterministic (e.g. iteration over
     * an unordered registry) stays run-to-run reproducible.
     */
    void ScheduleKeyed(DurationNs delay, std::uint64_t key, InlineFn&& fn);

    /** Absolute-time variant of ScheduleKeyed(). */
    void ScheduleAtKeyed(TimeNs when, std::uint64_t key, InlineFn&& fn);

    /**
     * Starts a detached coroutine process.
     *
     * The simulator takes ownership of the coroutine frame: the first
     * resume is scheduled as an event at the current time, and any frame
     * still suspended at simulator destruction is destroyed (tearing down
     * nested tasks), so infinite server loops do not leak.
     */
    void Spawn(Task<> task);

    /** Runs until the event queue is empty or Stop() is called. */
    void Run();

    /**
     * Runs all events up to and including time Now()+duration.
     *
     * If the window completes, the clock then advances to exactly
     * Now()+duration (even when no event landed on the boundary) and
     * that time is returned. If Stop() is called by an event inside the
     * window, the run returns immediately with the clock still at the
     * stopping event's timestamp — the clock never advances past an
     * event the caller asked to stop on — so the return value is the
     * stop time, not the window end. A later RunFor()/RunUntil()/Run()
     * clears the stop flag and resumes from that point.
     */
    TimeNs RunFor(DurationNs duration);

    /**
     * Runs all events up to and including @p when; the clock ends at
     * exactly @p when. Stop() semantics match RunFor(): stopping
     * mid-window leaves the clock at the stopping event's time.
     */
    void RunUntil(TimeNs when);

    /** Executes the single earliest event. Returns false if none. */
    bool Step();

    /**
     * Makes Run()/RunFor()/RunUntil() return after the current event,
     * leaving the clock at that event's timestamp (a stopped RunFor
     * does not advance to its window end). The flag clears on the next
     * Run()/RunFor()/RunUntil() entry.
     */
    void Stop() { stopped_ = true; }

    /** Number of events executed since construction (for tests/metrics). */
    std::uint64_t EventsExecuted() const { return events_executed_; }

    /**
     * Root coroutine frames currently owned (live or done-but-unreaped).
     * Tests use this to observe the incremental reap in Spawn().
     */
    std::size_t RootCount() const { return roots_.size(); }

    /**
     * Rolling FNV-1a fingerprint of the executed event stream.
     *
     * Folds (timestamp, tie-break identity) of every executed event;
     * two runs of the same configuration must end with equal hashes
     * (determinism_test asserts this). Keyed events fold their explicit
     * key, so the fingerprint is insensitive to insertion-order shuffles
     * of keyed same-timestamp events.
     */
    std::uint64_t EventHash() const { return event_hash_; }

    /**
     * Starts counting unkeyed same-timestamp insertions.
     *
     * While enabled, scheduling an *unkeyed* event at a timestamp that
     * already has pending events increments UnkeyedTieInsertions():
     * those are exactly the events whose mutual execution order depends
     * on schedule-call order rather than an explicit tie-break key.
     * Enable before the first Schedule() call; the audit only tracks
     * events inserted while it is on.
     */
    void EnableTieAudit() { tie_audit_ = true; }

    /** Unkeyed insertions that collided with a pending timestamp. */
    std::uint64_t UnkeyedTieInsertions() const
    {
        return unkeyed_tie_insertions_;
    }

    /** Awaitable: suspends the calling process for @p delay ns. */
    auto
    Delay(DurationNs delay)
    {
        struct Awaiter {
            Simulator& sim;
            DurationNs delay;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim.ScheduleResume(delay, h);
            }

            void await_resume() const {}
        };
        return Awaiter{*this, delay};
    }

    /**
     * Awaitable: reschedules the calling process at the current time,
     * letting all already-queued events at Now() run first.
     */
    auto Yield() { return Delay(0); }

  private:
    /** Checks an insertion's time and feeds the tie audit, if on. */
    void Admit(TimeNs when, std::uint64_t key);

    void AuditInsertion(TimeNs when, std::uint64_t key);
    void AuditExecution(TimeNs when);

    /** Runs one popped event and recycles its node. */
    void Execute(EventNode* node);

    /** Destroys finished root frames; destroys all frames if @p all. */
    void SweepRoots(bool all);

    /** Destroys one root frame, surfacing any stored exception. */
    void DestroyRoot(std::coroutine_handle<Task<>::promise_type> root);

    /**
     * Pending events, yielded in ascending (when, key, seq) order.
     * Keyed events order by key at a timestamp; unkeyed events carry
     * the EventNode::kUnkeyed sentinel key and fall through to FIFO
     * insertion order. The wheel assigns the sequence numbers.
     */
    TimingWheel events_;
    std::vector<std::coroutine_handle<Task<>::promise_type>> roots_;
    std::size_t reap_cursor_ = 0;  ///< round-robin incremental reap
    TimeNs now_{};
    std::uint64_t events_executed_ = 0;
    std::uint64_t event_hash_ = check::kFnvOffsetBasis;
    std::uint64_t unkeyed_tie_insertions_ = 0;
    std::map<TimeNs, std::uint32_t> pending_at_;  ///< tie-audit only
    bool tie_audit_ = false;
    bool stopped_ = false;
};

}  // namespace wave::sim
