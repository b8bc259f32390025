// wave-domain: host
#include "ghost/kernel.h"

#include "check/hooks.h"
#include "check/protocol.h"
#include "sim/inject.h"
#include "sim/trace.h"

#include <deque>
#include <optional>

namespace wave::ghost {

namespace {

/** Gap between idle polls in poll_idle mode. */
constexpr sim::DurationNs kPollGapNs = 250;

#ifdef WAVE_CHECK_ENABLED
check::TaskShadow
ShadowOf(ThreadState state)
{
    switch (state) {
        case ThreadState::kRunnable: return check::TaskShadow::kRunnable;
        case ThreadState::kRunning: return check::TaskShadow::kRunning;
        case ThreadState::kBlocked: return check::TaskShadow::kBlocked;
        case ThreadState::kDead: return check::TaskShadow::kDead;
    }
    return check::TaskShadow::kUnknown;
}
#endif

}  // namespace

KernelSched::KernelSched(sim::Simulator& sim, machine::Machine& machine,
                         SchedTransport& transport, GhostCosts costs,
                         KernelOptions options)
    : sim_(sim),
      machine_(machine),
      transport_(transport),
      costs_(costs),
      options_(options)
{
}

void
KernelSched::AddThread(Tid tid, std::shared_ptr<ThreadBody> body)
{
    threads_.Add(tid, std::move(body));
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnTaskState(this, tid, check::TaskShadow::kRunnable,
                                   "KernelSched::AddThread");
        }
    });
    // The creation message is sent from process context (not a specific
    // scheduled core); model it as a detached host-side send.
    sim_.Spawn(SendEvent(MsgType::kThreadCreated, tid, /*core=*/-1));
}

void
KernelSched::WakeThread(Tid tid)
{
    ThreadRecord* rec = threads_.Find(tid);
    WAVE_ASSERT(rec != nullptr, "waking unknown tid %d", tid);
    if (rec->state == ThreadState::kRunning) {
        rec->wake_pending = true;  // consumed when the thread blocks
        return;
    }
    if (rec->state != ThreadState::kBlocked) {
        return;  // already runnable; wakeup is a no-op
    }
    rec->state = ThreadState::kRunnable;
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnTaskState(this, tid, check::TaskShadow::kRunnable,
                                   "KernelSched::WakeThread");
        }
    });
    sim_.Spawn(SendEvent(MsgType::kThreadWakeup, tid, rec->last_core));
}

void
KernelSched::ReannounceAll()
{
    for (auto& [tid, rec] : threads_.All()) {
        if (rec.state == ThreadState::kRunnable) {
            sim_.Spawn(SendEvent(MsgType::kThreadWakeup, tid, rec.last_core));
        }
    }
}

void
KernelSched::Start(const std::vector<int>& cores)
{
    running_ = true;
    for (int core : cores) {
        sim_.Spawn(CoreLoop(core));
        if (options_.timer_ticks) {
            sim_.Spawn(TickLoop(core));
        }
    }
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the KernelSched is owned by the enclave/experiment for the whole simulator run, and the message fields are copied into the frame)
sim::Task<>
KernelSched::SendEvent(MsgType type, Tid tid, int core)
{
    GhostMessage message{};
    message.type = type;
    message.tid = tid;
    message.core = core;
    message.payload = sim_.Now().ns();
    ++stats_.messages_sent;
    co_await sim_.Delay(costs_.msg_prep_ns);
    co_await transport_.HostSendMessage(message);
}

// wave-lifetime(caller-awaits)
sim::Task<ThreadRecord*>
KernelSched::CommitDecision(int core, const PendingDecision& pd)
{
    co_await sim_.Delay(costs_.commit_ns);
    const bool run = pd.decision.type != DecisionType::kIdle;
    ThreadRecord* rec = nullptr;
    api::TxnStatus status = api::TxnStatus::kCommitted;
    [[maybe_unused]] const char* site = "KernelSched::CommitDecision[idle]";
    if (run && injector_ != nullptr && injector_->ShouldFailCommit()) {
        // Injected commit-failure burst: reject the transaction without
        // touching thread state. The agent must requeue the thread and
        // recover, exactly as for an organic stale-state failure.
        status = api::TxnStatus::kFailedRejected;
        site = "KernelSched::CommitDecision[injected]";
    } else if (run) {
        rec = threads_.Find(pd.decision.tid);
        site = "KernelSched::CommitDecision";
        if (rec == nullptr || rec->state != ThreadState::kRunnable) {
            // Atomic-commit failure: the thread exited, is already
            // running elsewhere, or blocked concurrently. Host state is
            // untouched.
            rec = nullptr;
            status = api::TxnStatus::kFailedStale;
            site = "KernelSched::CommitDecision[failed]";
        }
    }
    const bool committed = status == api::TxnStatus::kCommitted;
    ++(committed ? stats_.commits_ok : stats_.commits_failed);
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnCommitDecision(this, pd.txn_id,
                                        run ? pd.decision.tid : -1, run,
                                        committed, site);
        }
    });
    if (run && status != api::TxnStatus::kFailedRejected) {
        WAVE_TRACE_EVENT(&sim_, sim::TraceCategory::kGhost,
                         "commit%s txn=%llu tid=%d core=%d",
                         committed ? "" : " FAILED",
                         static_cast<unsigned long long>(pd.txn_id),
                         pd.decision.tid, core);
    }
    if (rec != nullptr) {
        rec->state = ThreadState::kRunning;
        rec->last_core = core;
    }
    co_await transport_.HostSendOutcome(core, {pd.txn_id, status});
    co_return rec;
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the KernelSched outlives the simulator run and Stop() parks the loop before teardown)
sim::Task<>
KernelSched::TickLoop(int core)
{
    CoreInterrupt& irq = transport_.InterruptFor(core);
    while (running_) {
        co_await sim_.Delay(costs_.tick_period_ns);
        irq.RaiseTick();
    }
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the KernelSched outlives the simulator run and Stop() parks the loop before teardown)
sim::Task<>
KernelSched::CoreLoop(int core)
{
    machine::Cpu& cpu = machine_.HostCpu(core);
    CoreInterrupt& irq = transport_.InterruptFor(core);

    ThreadRecord* current = nullptr;
    sim::DurationNs current_slice = 0;
    sim::TimeNs stopped_at{};
    bool measuring = false;
    bool just_prefetched = false;
    // Consumed-but-not-yet-wanted prestage decisions: a safety kick can
    // surface a prestage while a thread still runs; the kernel keeps
    // them locally for its next idle transitions instead of preempting.
    std::deque<PendingDecision> stashed;

    while (running_) {
        // --- 1. interrupt handling ---
        if (irq.ConsumeTick()) {
            ++stats_.ticks_handled;
            co_await cpu.Work(costs_.tick_ns);
        }
        if (irq.ConsumeKick()) {
            co_await cpu.Work(transport_.InterruptReceiveCost());
            // A kick means new decisions are (likely) in the queue; the
            // software-coherence flush happens inside the poll. Keep
            // draining: a prestage for later can sit *ahead of* the
            // preemption decision the kick was actually about.
            for (;;) {
                auto pd = co_await transport_.HostPollDecision(
                    core, /*flush_first=*/true);
                if (!pd) break;  // spurious/already-consumed kick
                if (current != nullptr && !pd->decision.preempt) {
                    // A prestage surfaced early: keep it for later and
                    // look for the decision that carried the kick.
                    stashed.push_back(*pd);
                    continue;
                }
                if (current != nullptr) {
                    // Real preemption: put the running thread back.
                    current->state = ThreadState::kRunnable;
                    WAVE_CHECK_HOOK({
                        if (protocol_ != nullptr) {
                            protocol_->OnTaskState(
                                this, current->tid,
                                check::TaskShadow::kRunnable,
                                "KernelSched::CoreLoop[preempt]");
                        }
                    });
                    ++stats_.preemptions;
                    WAVE_TRACE_EVENT(&sim_, sim::TraceCategory::kGhost,
                                     "preempt tid=%d core=%d",
                                     current->tid, core);
                    const Tid preempted = current->tid;
                    current = nullptr;
                    co_await SendEvent(MsgType::kThreadPreempted,
                                       preempted, core);
                }
                if (!stashed.empty()) {
                    // Enforce committed transactions in queue order:
                    // earlier prestages run before this preemption's
                    // pick, which waits its turn in the stash.
                    stashed.push_back(*pd);
                    pd = stashed.front();
                    stashed.pop_front();
                }
                ThreadRecord* next = co_await CommitDecision(core, *pd);
                if (next != nullptr) {
                    co_await cpu.Work(costs_.context_switch_ns);
                    current = next;
                    current_slice = pd->decision.slice_ns;
                }
                break;
            }
        }

        // --- 2. find work if idle ---
        if (current == nullptr) {
            std::optional<PendingDecision> pd;
            if (!stashed.empty()) {
                pd = stashed.front();
                stashed.pop_front();
            } else {
                pd = co_await transport_.HostPollDecision(
                    core, /*flush_first=*/!just_prefetched);
            }
            just_prefetched = false;
            if (!pd) {
                if (irq.Pending()) continue;  // raced with an interrupt
                if (options_.poll_idle) {
                    // Interrupts "disabled": spin on the queue instead.
                    ++stats_.idle_polls;
                    co_await cpu.Work(kPollGapNs);
                    continue;
                }
                ++stats_.idle_waits;
                co_await irq.WaitForInterrupt();
                continue;
            }
            if (measuring) ++stats_.prestage_hits;
            ThreadRecord* next = co_await CommitDecision(core, *pd);
            if (next == nullptr) continue;
            co_await cpu.Work(costs_.context_switch_ns);
            current = next;
            current_slice = pd->decision.slice_ns;
        }

        // --- 3. run the thread ---
        if (measuring) {
            stats_.ctx_switch_overhead.Record((sim_.Now() - stopped_at).ns());
            measuring = false;
        }
        RunContext ctx{sim_, cpu, irq, current_slice};
        const RunStop stop = co_await current->body->Run(ctx);

        if (stop == RunStop::kPreempted) {
            // An interrupt cut the thread short; the top of the loop
            // decides whether it carries a real preemption decision or
            // is just a tick (in which case we resume this thread).
            continue;
        }

        // --- 4. thread gave up the core: prefetch, update, notify ---
        stopped_at = sim_.Now();
        measuring = true;
        if (options_.prefetch_decisions) {
            co_await transport_.HostPrefetchDecision(core);
            just_prefetched = true;
        }
        const Tid tid = current->tid;
        MsgType event;
        switch (stop) {
          case RunStop::kBlocked:
            if (current->wake_pending) {
                // Wake raced with the block: skip the blocked state and
                // report a yield, which both frees the core and
                // re-enqueues the thread at the agent.
                current->wake_pending = false;
                current->state = ThreadState::kRunnable;
                event = MsgType::kThreadYield;
            } else {
                current->state = ThreadState::kBlocked;
                event = MsgType::kThreadBlocked;
            }
            break;
          case RunStop::kYielded:
            current->state = ThreadState::kRunnable;
            event = MsgType::kThreadYield;
            break;
          case RunStop::kExited:
          default:
            current->state = ThreadState::kDead;
            event = MsgType::kThreadDead;
            break;
        }
        WAVE_CHECK_HOOK({
            if (protocol_ != nullptr) {
                protocol_->OnTaskState(this, tid,
                                       ShadowOf(current->state),
                                       "KernelSched::CoreLoop[stop]");
            }
        });
        current = nullptr;
        co_await SendEvent(event, tid, core);
    }
}

}  // namespace wave::ghost
