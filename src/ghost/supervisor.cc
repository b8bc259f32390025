// wave-domain: host
#include "ghost/supervisor.h"

#include "check/hooks.h"
#include "check/protocol.h"
#include "sim/trace.h"

namespace wave::ghost {

AgentSupervisor::AgentSupervisor(sim::Simulator& sim, WaveRuntime& runtime,
                                 KernelSched& kernel,
                                 sim::DurationNs timeout,
                                 sim::DurationNs check_interval)
    : sim_(sim), runtime_(runtime), kernel_(kernel), timeout_(timeout),
      check_interval_(check_interval)
{
}

AgentSupervisor::~AgentSupervisor() = default;

void
AgentSupervisor::Supervise(AgentId id, std::shared_ptr<GhostAgent> agent,
                           std::function<std::shared_ptr<GhostAgent>()>
                               fallback_factory,
                           machine::Cpu& fallback_cpu)
{
    agent_id_ = id;
    agent_ = std::move(agent);
    fallback_factory_ = std::move(fallback_factory);
    fallback_cpu_ = &fallback_cpu;

    dog_ = std::make_unique<Watchdog>(sim_, timeout_, check_interval_,
                                      [this] { OnExpire(); });
    WAVE_CHECK_HOOK(dog_->AttachProtocol(runtime_.Protocol()));
    dog_->Arm();
    sim_.Spawn(FeedLoop());
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the supervisor is owned by the enclave, which outlives the simulator run)
sim::Task<>
AgentSupervisor::FeedLoop()
{
    // Liveness evidence is the agent's loop counter: a crashed agent's
    // Run() returned, a stalled agent is parked before the increment —
    // either way the counter freezes and the watchdog starves.
    std::uint64_t last_iterations = agent_->Stats().iterations;
    while (!dog_->Expired()) {
        co_await sim_.Delay(check_interval_);
        const std::uint64_t now_iterations = agent_->Stats().iterations;
        if (dog_->Expired()) break;  // expiry raced with the sleep
        if (now_iterations != last_iterations) {
            last_iterations = now_iterations;
            dog_->NoteDecision();
        }
    }
}

void
AgentSupervisor::OnExpire()
{
    ++stats_.expiries;
    WAVE_TRACE_EVENT(&sim_, "supervisor",
                     "watchdog expiry: killing agent %zu, falling back",
                     agent_id_);
    runtime_.KillWaveAgent(agent_id_);
    // Host-side fallback over the same transport: scheduling continues
    // from the host core while the NIC agent is gone. The kernel is the
    // source of truth, so the fallback needs no handoff beyond a replay
    // of the runnable set.
    fallback_ = fallback_factory_();
    fallback_ctx_ = std::make_unique<AgentContext>(sim_, *fallback_cpu_);
    sim_.Spawn(fallback_->Run(*fallback_ctx_));
    kernel_.ReannounceAll();
    stats_.fallback_active = true;
    stats_.fallback_at = sim_.Now();
}

}  // namespace wave::ghost
