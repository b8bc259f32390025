// wave-domain: host
#include "ghost/transport.h"

#include "channel/bytes.h"
#include "check/hb.h"
#include "check/hooks.h"
#include "check/protocol.h"

namespace wave::ghost {

namespace {

constexpr std::size_t kDecisionSlot =
    TxnWire::DecisionPayloadSize(GhostWire::kDecisionPayload);

api::Bytes
EncodeMessage(const GhostMessage& message)
{
    return channel::ToBytes(message, GhostWire::kMessagePayload);
}

GhostMessage
DecodeMessage(const api::Bytes& bytes)
{
    return channel::FromBytes<GhostMessage>(bytes);
}

std::vector<int>
Iota(int n)
{
    std::vector<int> cores;
    for (int i = 0; i < n; ++i) cores.push_back(i);
    return cores;
}

/**
 * Drains up to @p max messages from @p queue, Ready() then Take() per
 * message, into buffers of the call's own: an empty poll, the common
 * case of an agent pass, costs one event, this frame and no allocation.
 */
// wave-lifetime(caller-awaits)
template <typename Consumer>
sim::Task<std::vector<GhostMessage>>
DrainMessages(Consumer& queue, std::size_t max)
{
    std::vector<GhostMessage> out;
    api::Bytes slot;
    while (out.size() < max) {
        const bool ready = co_await queue.Ready();
        if (!ready) break;
        co_await queue.Take(slot);
        out.push_back(DecodeMessage(slot));
    }
    co_return out;
}

}  // namespace

// --- SchedTransport ---

// wave-lifetime(caller-awaits)
sim::Task<>
SchedTransport::AgentPollAllOutcomes(std::span<const int> cores,
                                     std::size_t max, OutcomeSink& sink)
{
    for (const int core : cores) {
        const auto outcomes = co_await AgentPollOutcomes(core, max);
        if (!outcomes.empty()) sink.OnOutcomes(core, outcomes);
    }
}

// --- WaveSchedTransport ---

WaveSchedTransport::WaveSchedTransport(WaveRuntime& runtime, int cores)
    : WaveSchedTransport(runtime, Iota(cores))
{
}

WaveSchedTransport::WaveSchedTransport(WaveRuntime& runtime,
                                       const std::vector<int>& cores)
    : runtime_(runtime), send_lock_(runtime.Sim(), 1)
{
    messages_ = runtime.CreateHostToNicQueue(channel::QueueConfig{
        .capacity = 256,
        .payload_size = GhostWire::kMessagePayload,
        .sync_interval = 32});
    for (int core : cores) {
        auto c = std::make_unique<Core>();
        WaveCoreQueues& q = c->queues;
        q.decisions = runtime.CreateNicToHostQueue(channel::QueueConfig{
            .capacity = 64, .payload_size = kDecisionSlot,
            .sync_interval = 8});
        q.outcomes = runtime.CreateHostToNicQueue(channel::QueueConfig{
            .capacity = 64, .payload_size = TxnWire::kOutcomeSize,
            .sync_interval = 8});
        c->kick = runtime.CreateMsiXVector();
        c->agent = std::make_unique<NicTxnEndpoint>(
            *q.decisions.nic, *q.outcomes.nic, c->kick.get());
        c->kernel = std::make_unique<HostTxnEndpoint>(
            *q.decisions.host, *q.outcomes.host, c->kick.get());
        // Fault-injection rigs attach their injector to the runtime
        // before building the transport; the txn endpoint carries the
        // double-commit-bug hook (MSI-X/DMA/MMIO hooks bind inside the
        // runtime's factories).
        c->agent->SetFaultInjector(runtime.Injector());
        WAVE_CHECK_HOOK({
            c->agent->AttachProtocol(runtime.Protocol());
            c->kernel->AttachProtocol(runtime.Protocol());
            // The kick's HB edge runs from the committing agent (the
            // decision producer) to the kicked core (the consumer).
            if (runtime.Hb() != nullptr) {
                c->kick->AttachHb(runtime.Hb(), q.decisions.nic->HbActor(),
                                  q.decisions.host->HbActor());
            }
        });
        Serve(runtime.Sim(), core, std::move(c));
    }
}

// wave-lifetime(caller-awaits)
sim::Task<>
WaveSchedTransport::HostSendMessage(const GhostMessage& message)
{
    std::vector<api::Bytes> batch;
    batch.push_back(EncodeMessage(message));
    co_await send_lock_.Acquire();
    // Lock hand-off edge: each critical section acquires the previous
    // holder's release. The producer endpoint is bound as one actor (all
    // senders are serialized right here), so this edge documents the
    // serialization rather than splitting the senders into actors.
    WAVE_CHECK_HOOK({
        if (auto* hb = runtime_.Hb()) {
            hb->OnAcquire(messages_.host->HbActor(), &send_lock_, 0);
        }
    });
    const std::size_t sent = co_await messages_.host->Send(batch);
    WAVE_CHECK_HOOK({
        if (auto* hb = runtime_.Hb()) {
            hb->OnRelease(messages_.host->HbActor(), &send_lock_, 0);
        }
    });
    send_lock_.Release();
    WAVE_ASSERT(sent == 1, "ghOSt message queue overflow");
}

sim::DurationNs
WaveSchedTransport::InterruptReceiveCost() const
{
    return runtime_.PcieCfg().msix_receive_ns;
}

sim::Task<std::vector<GhostMessage>>
WaveSchedTransport::AgentPollMessages(std::size_t max)
{
    return DrainMessages(*messages_.nic, max);
}

// --- ShmSchedTransport ---

pcie::PcieConfig
ShmSchedTransport::IpiCosts()
{
    // Reuse the latched-vector mechanism with IPI-calibrated costs:
    // Table 3 row 3 measures 770 ns for an on-host agent to open a
    // decision and send the interrupt, and interrupt entry costs are
    // comparable to MSI-X receive (~350 ns).
    pcie::PcieConfig cfg;
    cfg.msix_send_ns = 650;
    cfg.msix_send_ioctl_ns = 650;
    cfg.msix_receive_ns = 350;
    cfg.msix_end_to_end_ns = 1250;
    return cfg;
}

ShmSchedTransport::ShmSchedTransport(sim::Simulator& sim, int cores)
    : ShmSchedTransport(sim, Iota(cores))
{
}

ShmSchedTransport::ShmSchedTransport(sim::Simulator& sim,
                                     const std::vector<int>& cores)
    : messages_(sim, 4096, GhostWire::kMessagePayload)
{
    for (int core : cores) {
        auto c = std::make_unique<Core>();
        ShmCoreQueues& q = c->queues;
        q.decisions = std::make_unique<ShmQueue>(sim, 256, kDecisionSlot);
        q.outcomes =
            std::make_unique<ShmQueue>(sim, 256, TxnWire::kOutcomeSize);
        c->kick = std::make_unique<pcie::MsiXVector>(sim, IpiCosts());
        c->agent = std::make_unique<ShmAgentTxnEndpoint>(
            *q.decisions, *q.outcomes, c->kick.get());
        c->kernel = std::make_unique<ShmKernelTxnEndpoint>(
            *q.decisions, *q.outcomes, c->kick.get());
        Serve(sim, core, std::move(c));
    }
}

void
ShmSchedTransport::AttachCheckers(check::HbRaceDetector* hb,
                                  check::ProtocolChecker* protocol)
{
    (void)hb;  // referenced only by the gated block below
    (void)protocol;
    WAVE_CHECK_HOOK({
        // The message queue has many sending contexts (every core loop)
        // which the coherent deque serializes per push; they are bound
        // as one producer actor (documented over-approximation).
        messages_.BindCheckers(
            hb, protocol,
            // Both sides of the shm baseline live on the host.
            hb != nullptr
                ? hb->RegisterActor("shm-msg-producers")
                : 0,
            hb != nullptr
                ? hb->RegisterActor("shm-agent")
                : 0);
        for (auto& c : percore_) {
            if (c == nullptr) continue;  // a core this transport skips
            const sim::ActorId agent =
                hb != nullptr ? hb->RegisterActor("shm-agent") : 0;
            const sim::ActorId core_loop =
                hb != nullptr ? hb->RegisterActor("shm-core-loop") : 0;
            c->queues.decisions->BindCheckers(hb, protocol, agent,
                                              core_loop);
            c->queues.outcomes->BindCheckers(hb, protocol, core_loop,
                                             agent);
            c->agent->AttachProtocol(protocol);
            c->kernel->AttachProtocol(protocol);
            if (hb != nullptr) {
                c->kick->AttachHb(hb, agent, core_loop);
            }
        }
    });
}

// wave-lifetime(caller-awaits)
sim::Task<>
ShmSchedTransport::HostSendMessage(const GhostMessage& message)
{
    std::vector<api::Bytes> batch;
    batch.push_back(EncodeMessage(message));
    const std::size_t sent = co_await messages_.Send(batch);
    WAVE_ASSERT(sent == 1, "ghOSt message queue overflow");
}

sim::DurationNs
ShmSchedTransport::InterruptReceiveCost() const
{
    return IpiCosts().msix_receive_ns;
}

sim::Task<std::vector<GhostMessage>>
ShmSchedTransport::AgentPollMessages(std::size_t max)
{
    return DrainMessages(messages_, max);
}

}  // namespace wave::ghost
