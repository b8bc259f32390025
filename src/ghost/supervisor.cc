// wave-domain: host
#include "ghost/supervisor.h"

#include "check/hooks.h"
#include "check/protocol.h"
#include "sim/trace.h"

namespace wave::ghost {

AgentSupervisor::AgentSupervisor(WaveRuntime& runtime, KernelSched& kernel,
                                 sim::DurationNs timeout,
                                 sim::DurationNs check_interval,
                                 Successor successor)
    : runtime_(runtime), kernel_(kernel), check_interval_(check_interval),
      successor_(std::move(successor))
{
    if (timeout > 0) {
        dog_ = std::make_unique<Watchdog>(
            runtime_.Sim(), timeout, check_interval_, [this] {
                ++stats_.expiries;
                WAVE_TRACE_EVENT(&runtime_.Sim(), "supervisor",
                                 "watchdog expiry: replacing agent %zu",
                                 watched_.id);
                Replace();
            });
        WAVE_CHECK_HOOK(dog_->AttachProtocol(runtime_.Protocol()));
    }
}

AgentSupervisor::~AgentSupervisor() = default;

void
AgentSupervisor::Supervise(SupervisedAgent agent)
{
    WAVE_ASSERT(agent.agent != nullptr, "supervising no agent");
    watched_ = agent;
    last_iterations_ = agent.agent->Stats().iterations;
    if (dog_ == nullptr) return;
    dog_->Arm();
    // One feed task serves every agent this supervisor watches in turn.
    if (!feeding_) {
        feeding_ = true;
        runtime_.Sim().Spawn(FeedLoop());
    }
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the supervisor is owned by the enclave or testbed, which outlives the simulator run)
sim::Task<>
AgentSupervisor::FeedLoop()
{
    // Liveness evidence is the agent's loop counter: a crashed agent's
    // Run() returned, a stalled agent is parked before the increment —
    // either way the counter freezes and the watchdog starves. The task
    // ends once a replacement leaves no agent to watch (a fallback).
    while (watched_.agent != nullptr) {
        co_await runtime_.Sim().Delay(check_interval_);
        if (watched_.agent == nullptr) break;
        const std::uint64_t iterations = watched_.agent->Stats().iterations;
        if (iterations != last_iterations_) {
            last_iterations_ = iterations;
            dog_->NoteDecision();
        }
    }
    feeding_ = false;
}

void
AgentSupervisor::Replace()
{
    WAVE_ASSERT(watched_.agent != nullptr, "no supervised agent to replace");
    runtime_.KillWaveAgent(watched_.id);
    watched_ = {};
    if (const std::optional<SupervisedAgent> next = successor_()) {
        Supervise(*next);
    } else {
        if (dog_ != nullptr) dog_->Disarm();
        stats_.fallback_active = true;
        stats_.fallback_at = runtime_.Sim().Now();
    }
    // Re-pull from the source of truth: the kernel replays every
    // runnable thread so the successor rebuilds its run queue (§6).
    kernel_.ReannounceAll();
}

}  // namespace wave::ghost
