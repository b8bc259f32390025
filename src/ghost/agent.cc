// wave-domain: host
#include "ghost/agent.h"

#include <algorithm>

namespace wave::ghost {

namespace {

/** Messages drained per iteration. */
constexpr std::size_t kMsgBatch = 32;

/** Per-iteration bookkeeping compute at reference speed. */
constexpr sim::DurationNs kLoopOverheadNs = 50;

}  // namespace

GhostAgent::GhostAgent(SchedTransport& transport,
                       std::shared_ptr<SchedPolicy> policy,
                       AgentConfig config)
    : transport_(transport),
      policy_(std::move(policy)),
      config_(std::move(config))
{
    WAVE_ASSERT(!config_.cores.empty(), "agent with no cores to schedule");
    const int max_core =
        *std::max_element(config_.cores.begin(), config_.cores.end());
    cores_.resize(static_cast<std::size_t>(max_core) + 1);
    // Every managed core starts idle and waiting for its first decision.
    for (int core : config_.cores) {
        Model(core).needs_decision = true;
    }
}

// wave-lifetime(spawn-safe: the agent and its AgentContext are owned by the spawner (enclave, supervisor, or experiment frame), which runs the simulator to completion before releasing them)
sim::Task<>
GhostAgent::Run(AgentContext& ctx)
{
    while (!ctx.StopRequested()) {
        if (ctx.StallUntil() > ctx.Sim().Now()) {
            // Injected wedge: alive but not iterating. Sleep in short
            // slices so a concurrent kill still takes effect promptly.
            const sim::DurationNs remaining =
                ctx.StallUntil() - ctx.Sim().Now();
            co_await ctx.Sim().Delay(
                std::min<sim::DurationNs>(remaining, 100'000));
            continue;
        }
        ++stats_.iterations;
        const sim::TimeNs iter_start = ctx.Sim().Now();
        co_await HandleMessages(ctx);
        co_await HandleOutcomes(ctx);
        co_await IssueDecisions(ctx);
        if (config_.prestage) {
            co_await IssuePrestages(ctx);
        }
        co_await IssuePreemptions(ctx);
        if (config_.aux_stage) {
            co_await config_.aux_stage(ctx);
        }
        co_await ctx.Cpu().Work(kLoopOverheadNs);
        // Histogram recording adds no simulator events, so enabling or
        // windowing it never shifts a determinism fingerprint.
        const sim::TimeNs iter_end = ctx.Sim().Now();
        const bool windowed =
            config_.iter_window_end > config_.iter_window_begin;
        if (!windowed || (iter_start >= config_.iter_window_begin &&
                          iter_end <= config_.iter_window_end)) {
            iter_latency_.Record((iter_end - iter_start).ns());
        }
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
GhostAgent::HandleMessages(AgentContext& ctx)
{
    auto messages = co_await transport_.AgentPollMessages(kMsgBatch);
    for (const GhostMessage& message : messages) {
        ++stats_.messages;
        co_await ctx.Cpu().Work(policy_->PerMessageComputeNs());

        // Update the core model before the policy consumes the event.
        const bool frees_core = message.type == MsgType::kThreadBlocked ||
                                message.type == MsgType::kThreadYield ||
                                message.type == MsgType::kThreadPreempted ||
                                message.type == MsgType::kThreadDead;
        if (frees_core && message.core >= 0 &&
            message.core < static_cast<int>(cores_.size())) {
            CoreModel& model = Model(message.core);
            if (message.type == MsgType::kThreadPreempted) {
                model.preempt_inflight = false;
            }
            if (model.running == message.tid) {
                model.running = kNoThread;
                if (!model.inflight.empty()) {
                    // A prestaged decision is already in the core's
                    // queue. If it was committed before the thread
                    // blocked (message.payload carries the block
                    // timestamp), the host saw it at block time; only
                    // a commit that raced past the block needs a
                    // safety kick.
                    const CoreModel::Inflight front =
                        model.inflight.front();
                    model.inflight.pop_front();
                    model.running = front.decision.tid;
                    model.running_since = ctx.Sim().Now();
                    if (config_.use_kicks &&
                        front.committed_at > sim::TimeNs{message.payload}) {
                        ++stats_.kicks;
                        co_await transport_.AgentKick(message.core);
                    }
                } else {
                    model.needs_decision = true;
                }
            }
        }
        policy_->OnMessage(message);
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
GhostAgent::HandleOutcomes(AgentContext& ctx)
{
    for (int core : config_.cores) {
        auto outcomes = co_await transport_.AgentPollOutcomes(core, 8);
        for (const api::TxnOutcome& outcome : outcomes) {
            CoreModel& model = Model(core);
            // Find the matching in-flight record. Outcomes arrive in
            // commit order, but adoption in HandleMessages may already
            // have popped the front, so search by id.
            GhostDecision decision{};
            bool found = false;
            for (auto it = model.inflight.begin();
                 it != model.inflight.end(); ++it) {
                if (it->txn_id == outcome.txn_id) {
                    decision = it->decision;
                    model.inflight.erase(it);
                    found = true;
                    break;
                }
            }
            bool reactive = false;
            if (!found) {
                const auto it = model.reactive.find(outcome.txn_id);
                if (it != model.reactive.end()) {
                    decision = it->second;
                    model.reactive.erase(it);
                    reactive = true;
                }
            }
            if (outcome.status == api::TxnStatus::kCommitted) {
                if (found) {
                    model.running = decision.tid;
                    model.running_since = ctx.Sim().Now();
                }
                continue;  // reactive commits were adopted at issue time
            }
            ++stats_.failed_commits;
            if (!found && !reactive) {
                // No record at all (e.g. a duplicate outcome): repair
                // the model conservatively.
                if (model.running != kNoThread) {
                    model.running = kNoThread;
                }
                model.needs_decision = true;
                continue;
            }
            // kFailedStale means the thread stopped being runnable
            // concurrently (blocked/exited); its eventual wakeup message
            // re-announces it, so requeueing here would duplicate it.
            // kFailedRejected means the host refused the commit with the
            // thread still runnable — no wakeup will ever come, so the
            // agent must requeue or the thread is stranded.
            if (!reactive || outcome.status == api::TxnStatus::kFailedRejected) {
                policy_->OnDecisionFailed(decision);
            }
            if (model.running == decision.tid) {
                model.running = kNoThread;
            }
            model.needs_decision = true;
        }
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
GhostAgent::IssueDecisions(AgentContext& ctx)
{
    for (int core : config_.cores) {
        CoreModel& model = Model(core);
        if (!model.needs_decision) continue;
        auto decision = policy_->PickNext(core, ctx.Sim().Now());
        if (!decision) continue;  // nothing runnable; core stays idle
        co_await ctx.Cpu().Work(policy_->DecisionComputeNs());
        const api::TxnId id = transport_.AgentStageDecision(*decision);
        ++stats_.decisions;
        if (config_.use_kicks) ++stats_.kicks;
        // Reactive decision: the host core is idle-waiting, so kick —
        // unless the host polls for decisions (§4.3 RPC mode).
        co_await transport_.AgentCommit(core, /*kick=*/config_.use_kicks);
        model.needs_decision = false;
        model.running = decision->tid;
        model.running_since = ctx.Sim().Now();
        // Adopted immediately, but keep the txn record so a failed
        // commit can be matched back to its thread (see
        // CoreModel::reactive).
        model.reactive[id] = *decision;
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
GhostAgent::IssuePrestages(AgentContext& ctx)
{
    for (int core : config_.cores) {
        CoreModel& model = Model(core);
        if (model.running == kNoThread) continue;   // reactive path owns it
        if (!model.inflight.empty()) continue;      // one prestage per core
        if (policy_->RunQueueDepth() < config_.prestage_min_depth) break;
        auto decision = policy_->PickNext(core, ctx.Sim().Now());
        if (!decision) break;
        co_await ctx.Cpu().Work(policy_->DecisionComputeNs());
        const api::TxnId id = transport_.AgentStageDecision(*decision);
        ++stats_.decisions;
        ++stats_.prestages;
        co_await transport_.AgentCommit(core, /*kick=*/false);
        model.inflight.push_back(CoreModel::Inflight{
            id, *decision, ctx.Sim().Now()});
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
GhostAgent::IssuePreemptions(AgentContext& ctx)
{
    for (int core : config_.cores) {
        CoreModel& model = Model(core);
        if (model.running == kNoThread || model.preempt_inflight) continue;
        const sim::DurationNs ran_for =
            ctx.Sim().Now() - model.running_since;
        if (!policy_->ShouldPreempt(core, model.running, ran_for)) {
            continue;
        }
        auto decision = policy_->PickNext(core, ctx.Sim().Now());
        if (!decision) continue;  // nothing to switch to: let it run
        decision->preempt = 1;
        co_await ctx.Cpu().Work(policy_->DecisionComputeNs());
        const api::TxnId id = transport_.AgentStageDecision(*decision);
        model.inflight.push_back(CoreModel::Inflight{
            id, *decision, ctx.Sim().Now()});
        model.preempt_inflight = true;
        ++stats_.decisions;
        ++stats_.preempt_decisions;
        ++stats_.kicks;
        co_await transport_.AgentCommit(core, /*kick=*/true);
    }
}

}  // namespace wave::ghost
