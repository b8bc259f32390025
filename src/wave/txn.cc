// wave-domain: pcie
#include "wave/txn.h"

#include <cstring>

#include "check/coherence.h"
#include "check/hooks.h"
#include "check/protocol.h"
#include "sim/inject.h"

namespace wave {

namespace {

/**
 * What the endpoints need from one queue-endpoint type beyond the calls
 * both kinds share: the protocol scope (the storage both ends of a
 * channel resolve to), how a batch is published or one slot polled,
 * the coherence checker that sees txn-commit ordering points, and the
 * checker's site labels, named after the endpoint aliases.
 */
template <typename Q>
struct QueueOps;

template <>
struct QueueOps<channel::NicProducer> {
    static constexpr check::Domain kDomain = check::Domain::kNic;
    static constexpr const char* kCreate = "NicTxnEndpoint::TxnCreate";
    static constexpr const char* kCommit = "NicTxnEndpoint::TxnsCommit";
    static constexpr const char* kDup = "NicTxnEndpoint::TxnsCommit[dup]";
    static constexpr const char* kObserved =
        "NicTxnEndpoint::PollTxnsOutcomes";

    static const void* Scope(channel::NicProducer& q) { return &q.Queue(); }

    static sim::Task<std::size_t>
    Publish(channel::NicProducer& q, const std::vector<api::Bytes>& batch)
    {
        return q.SendBatch(batch);
    }

    static check::CoherenceChecker*
    Coherence(channel::NicProducer& q)
    {
        return q.Queue().Dram().Checker();
    }
};

template <>
struct QueueOps<channel::HostConsumer> {
    static constexpr const char* kDelivered = "HostTxnEndpoint::PollTxns";
    static constexpr const char* kOutcome =
        "HostTxnEndpoint::SetTxnsOutcomes";

    static const void* Scope(channel::HostConsumer& q) { return &q.Queue(); }

    static sim::Task<std::optional<api::Bytes>>
    Poll(channel::HostConsumer& q, bool flush_first)
    {
        return q.Poll(flush_first);
    }
};

/** Both ends of the on-host binding's queues run on host cores. */
template <>
struct QueueOps<ShmQueue> {
    static constexpr check::Domain kDomain = check::Domain::kHost;
    static constexpr const char* kCreate = "ShmAgentTxnEndpoint::TxnCreate";
    static constexpr const char* kCommit = "ShmAgentTxnEndpoint::TxnsCommit";
    static constexpr const char* kDup = "ShmAgentTxnEndpoint::TxnsCommit[dup]";
    static constexpr const char* kObserved =
        "ShmAgentTxnEndpoint::PollTxnsOutcomes";
    static constexpr const char* kDelivered = "ShmKernelTxnEndpoint::PollTxns";
    static constexpr const char* kOutcome =
        "ShmKernelTxnEndpoint::SetTxnsOutcomes";

    static const void* Scope(ShmQueue& q) { return &q; }

    static sim::Task<std::size_t>
    Publish(ShmQueue& q, const std::vector<api::Bytes>& batch)
    {
        return q.Send(batch);
    }

    static sim::Task<std::optional<api::Bytes>>
    Poll(ShmQueue& q, bool /*flush_first*/)
    {
        return q.Poll();
    }

    /** Coherent memory has no ordering points; its traffic is counted. */
    static check::CoherenceChecker* Coherence(ShmQueue&) { return nullptr; }
};

api::Bytes
FrameDecision(api::TxnId id, const api::Bytes& payload,
              std::size_t queue_payload_size)
{
    WAVE_ASSERT(TxnWire::kHeaderSize + payload.size() <=
                    queue_payload_size,
                "decision payload %zu too large for queue slot %zu",
                payload.size(), queue_payload_size);
    api::Bytes framed(queue_payload_size);
    std::memcpy(framed.data(), &id, sizeof(id));
    std::memcpy(framed.data() + TxnWire::kHeaderSize, payload.data(),
                payload.size());
    return framed;
}

}  // namespace

template <typename D, typename O>
api::TxnId
AgentTxnEndpoint<D, O>::TxnCreate(api::Bytes payload)
{
    const api::TxnId id = next_id_++;
    // Frame now so TxnsCommit is a pure queue push. The queue's payload
    // size comes from the storage the producer targets.
    staged_.push_back(FrameDecision(
        id, payload, decisions_.QueuePayloadSize()));
    staged_ids_.push_back(id);
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnTxnCreated(QueueOps<D>::Scope(decisions_), id,
                                    QueueOps<D>::kDomain,
                                    QueueOps<D>::kCreate);
        }
    });
    return id;
}

// wave-lifetime(caller-awaits)
template <typename D, typename O>
sim::Task<std::size_t>
AgentTxnEndpoint<D, O>::TxnsCommit(bool send_msix)
{
    using Ops = QueueOps<D>;
    const std::size_t sent = co_await Ops::Publish(decisions_, staged_);
    // Injected double-commit bug: capture the first record just sent so
    // it can be re-published below under the same transaction id.
    std::vector<api::Bytes> dup_batch;
    api::TxnId dup_id = 0;
    if (injector_ != nullptr && sent > 0 &&
        injector_->ShouldDoubleCommit()) {
        dup_batch.push_back(staged_.front());
        dup_id = staged_ids_.front();
    }
    staged_.erase(staged_.begin(),
                  staged_.begin() + static_cast<std::ptrdiff_t>(sent));
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            for (std::size_t i = 0; i < sent; ++i) {
                protocol_->OnTxnPublished(Ops::Scope(decisions_),
                                          staged_ids_[i], Ops::kDomain,
                                          Ops::kCommit);
            }
        }
    });
    staged_ids_.erase(staged_ids_.begin(),
                      staged_ids_.begin() +
                          static_cast<std::ptrdiff_t>(sent));
    WAVE_CHECK_HOOK({
        if (auto* checker = Ops::Coherence(decisions_);
            checker != nullptr && sent > 0) {
            checker->OnOrderingPoint("txn-commit");
        }
    });
    if (!dup_batch.empty()) {
        // The bug on the wire: the same transaction id enters the
        // decision queue twice. The host will deliver, commit, and
        // report it twice — the protocol checker must flag every step.
        const bool resent =
            co_await Ops::Publish(decisions_, dup_batch) == 1;
        WAVE_CHECK_HOOK({
            if (resent && protocol_ != nullptr) {
                protocol_->OnTxnPublished(Ops::Scope(decisions_), dup_id,
                                          Ops::kDomain, Ops::kDup);
            }
        });
        (void)resent;
        (void)dup_id;
    }
    if (send_msix && sent > 0) {
        WAVE_ASSERT(msix_ != nullptr,
                    "TxnsCommit(send_msix) on an endpoint with no vector");
        co_await msix_->Send();
    }
    co_return sent;
}

// wave-lifetime(caller-awaits)
template <typename D, typename O>
sim::Task<api::TxnOutcome>
AgentTxnEndpoint<D, O>::TakeOutcome()
{
    co_await outcomes_.Take(record_);
    api::TxnOutcome outcome;
    std::memcpy(&outcome.txn_id, record_.data(), sizeof(outcome.txn_id));
    std::memcpy(&outcome.status, record_.data() + sizeof(api::TxnId),
                sizeof(outcome.status));
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnTxnOutcomeObserved(
                QueueOps<D>::Scope(decisions_), outcome.txn_id,
                QueueOps<D>::kDomain, QueueOps<D>::kObserved);
        }
    });
    co_return outcome;
}

// wave-lifetime(caller-awaits)
template <typename D, typename O>
sim::Task<std::vector<api::TxnOutcome>>
AgentTxnEndpoint<D, O>::PollTxnsOutcomes(std::size_t max)
{
    std::vector<api::TxnOutcome> out;
    while (out.size() < max) {
        const bool ready = co_await OutcomeReady();
        if (!ready) break;
        out.push_back(co_await TakeOutcome());
    }
    co_return out;
}

// wave-lifetime(caller-awaits)
template <typename D, typename O>
sim::Task<std::optional<HostTxn>>
KernelTxnEndpoint<D, O>::PollTxns(bool flush_first)
{
    auto slot = co_await QueueOps<D>::Poll(decisions_, flush_first);
    if (!slot) co_return std::nullopt;
    HostTxn txn;
    std::memcpy(&txn.id, slot->data(), sizeof(txn.id));
    // The slot becomes the payload: drop the header in place instead of
    // copying the rest out.
    slot->erase(slot->begin(), slot->begin() + TxnWire::kHeaderSize);
    txn.payload = std::move(*slot);
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnTxnDelivered(QueueOps<D>::Scope(decisions_),
                                      txn.id, check::Domain::kHost,
                                      QueueOps<D>::kDelivered);
        }
    });
    co_return txn;
}

// wave-lifetime(caller-awaits)
template <typename D, typename O>
sim::Task<>
KernelTxnEndpoint<D, O>::SetTxnsOutcomes(
    std::span<const api::TxnOutcome> outs)
{
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            for (const api::TxnOutcome& outcome : outs) {
                protocol_->OnTxnOutcome(QueueOps<D>::Scope(decisions_),
                                        outcome.txn_id,
                                        check::Domain::kHost,
                                        QueueOps<D>::kOutcome);
            }
        }
    });
    // The record buffers keep their capacity from one call to the next,
    // so steady-state reporting does not allocate.
    records_.resize(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        api::Bytes& record = records_[i];
        record.assign(outcomes_.QueuePayloadSize(), std::byte{0});
        std::memcpy(record.data(), &outs[i].txn_id,
                    sizeof(outs[i].txn_id));
        std::memcpy(record.data() + sizeof(api::TxnId), &outs[i].status,
                    sizeof(outs[i].status));
    }
    const std::size_t sent = co_await outcomes_.Send(records_);
    WAVE_ASSERT(sent == records_.size(),
                "outcome queue overflow: agent is not draining outcomes");
}

// wave-lifetime(caller-awaits)
template <typename D, typename O>
sim::Task<>
KernelTxnEndpoint<D, O>::WaitForKick()
{
    WAVE_ASSERT(msix_ != nullptr);
    return msix_->WaitAndReceive();
}

template <typename D, typename O>
bool
KernelTxnEndpoint<D, O>::ConsumeKick()
{
    WAVE_ASSERT(msix_ != nullptr);
    return msix_->ConsumePending();
}

template class AgentTxnEndpoint<channel::NicProducer, channel::NicConsumer>;
template class KernelTxnEndpoint<channel::HostConsumer, channel::HostProducer>;
template class AgentTxnEndpoint<ShmQueue, ShmQueue>;
template class KernelTxnEndpoint<ShmQueue, ShmQueue>;

}  // namespace wave
