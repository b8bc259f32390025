// wave-domain: neutral
#include "check/protocol.h"

#include <cstdio>

#include "check/fnv.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace wave::check {

const char*
ProtocolViolationKindName(ProtocolViolationKind kind)
{
    switch (kind) {
        case ProtocolViolationKind::kDoubleCommit:
            return "double-commit";
        case ProtocolViolationKind::kTxnClaimedTwice:
            return "txn-claimed-twice";
        case ProtocolViolationKind::kDuplicateOutcome:
            return "duplicate-outcome";
        case ProtocolViolationKind::kOutcomeBeforeDelivery:
            return "outcome-before-delivery";
        case ProtocolViolationKind::kPhantomOutcome:
            return "phantom-outcome";
        case ProtocolViolationKind::kUnknownTxn:
            return "unknown-txn";
        case ProtocolViolationKind::kSeqnumRegression:
            return "seqnum-regression";
        case ProtocolViolationKind::kBarrierSkip:
            return "barrier-skip";
        case ProtocolViolationKind::kPhantomMessage:
            return "phantom-message";
        case ProtocolViolationKind::kStaleViewCommit:
            return "stale-view-commit";
        case ProtocolViolationKind::kDoubleClaim:
            return "double-claim";
        case ProtocolViolationKind::kCommitAfterTimeout:
            return "commit-after-timeout";
    }
    return "?";
}

std::string
ProtocolViolation::Describe() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s: %s %s(id=%llu)@%llu ns conflicts with %s %s(id=%llu)@%llu ns",
        ProtocolViolationKindName(kind), DomainName(current.domain),
        current.label, static_cast<unsigned long long>(current.id),
        static_cast<unsigned long long>(current.when.ns()),
        DomainName(previous.domain), previous.label,
        static_cast<unsigned long long>(previous.id),
        static_cast<unsigned long long>(previous.when.ns()));
    return buf;
}

ProtocolSite
ProtocolChecker::Site(const char* label, Domain domain,
                      std::uint64_t id) const
{
    return ProtocolSite{label, domain, id, sim_.Now()};
}

void
ProtocolChecker::OnTxnCreated(const void* scope, std::uint64_t id,
                              Domain domain, const char* site)
{
    stats_.txns_created += 1;
    const ProtocolSite current = Site(site, domain, id);
    auto [it, inserted] = txns_.emplace(ScopedKey{scope, id}, TxnShadow{});
    if (!inserted) {
        // Two agents claimed the same transaction id on one queue —
        // their outcomes would be indistinguishable on the wire.
        Report(ProtocolViolationKind::kTxnClaimedTwice, current,
               it->second.created);
        return;
    }
    it->second.created = current;
    it->second.last_event = current;
}

void
ProtocolChecker::OnTxnPublished(const void* scope, std::uint64_t id,
                                Domain domain, const char* site)
{
    stats_.txns_published += 1;
    const ProtocolSite current = Site(site, domain, id);
    auto it = txns_.find(ScopedKey{scope, id});
    if (it == txns_.end()) {
        Report(ProtocolViolationKind::kUnknownTxn, current, current);
        return;
    }
    TxnShadow& txn = it->second;
    if (txn.phase != TxnShadow::Phase::kCreated) {
        Report(ProtocolViolationKind::kDoubleCommit, current,
               txn.last_event);
        return;
    }
    txn.phase = TxnShadow::Phase::kPublished;
    txn.last_event = current;
}

void
ProtocolChecker::OnTxnDelivered(const void* scope, std::uint64_t id,
                                Domain domain, const char* site)
{
    stats_.txns_delivered += 1;
    const ProtocolSite current = Site(site, domain, id);
    auto it = txns_.find(ScopedKey{scope, id});
    if (it == txns_.end()) {
        Report(ProtocolViolationKind::kUnknownTxn, current, current);
        return;
    }
    TxnShadow& txn = it->second;
    if (txn.phase != TxnShadow::Phase::kPublished) {
        // Delivered twice (host re-read a consumed slot) or delivered
        // without a publish; either way the queue handed the host a
        // transaction the agent did not just commit.
        Report(ProtocolViolationKind::kUnknownTxn, current,
               txn.last_event);
        return;
    }
    txn.phase = TxnShadow::Phase::kDelivered;
    txn.last_event = current;
}

void
ProtocolChecker::OnTxnOutcome(const void* scope, std::uint64_t id,
                              Domain domain, const char* site)
{
    stats_.outcomes_reported += 1;
    const ProtocolSite current = Site(site, domain, id);
    auto it = txns_.find(ScopedKey{scope, id});
    if (it == txns_.end()) {
        Report(ProtocolViolationKind::kPhantomOutcome, current, current);
        return;
    }
    TxnShadow& txn = it->second;
    if (txn.phase == TxnShadow::Phase::kResolved) {
        Report(ProtocolViolationKind::kDuplicateOutcome, current,
               txn.last_event);
        return;
    }
    if (txn.phase != TxnShadow::Phase::kDelivered) {
        Report(ProtocolViolationKind::kOutcomeBeforeDelivery, current,
               txn.last_event);
        return;
    }
    txn.phase = TxnShadow::Phase::kResolved;
    txn.last_event = current;
}

void
ProtocolChecker::OnTxnOutcomeObserved(const void* scope, std::uint64_t id,
                                      Domain domain, const char* site)
{
    stats_.outcomes_observed += 1;
    const ProtocolSite current = Site(site, domain, id);
    auto it = txns_.find(ScopedKey{scope, id});
    if (it == txns_.end()) {
        Report(ProtocolViolationKind::kPhantomOutcome, current, current);
        return;
    }
    // Observation completes the lifecycle; the record can be retired so
    // long-running agents do not grow the shadow map without bound.
    txns_.erase(it);
}

void
ProtocolChecker::OnStreamSend(const void* scope, std::uint64_t seq,
                              Domain domain, const char* site)
{
    stats_.stream_sends += 1;
    StreamShadow& stream = streams_[scope];
    stream.last_send = Site(site, domain, seq);
    if (seq >= stream.next_send) {
        stream.next_send = seq + 1;
    }
}

void
ProtocolChecker::OnStreamRecv(const void* scope, std::uint64_t seq,
                              Domain domain, const char* site)
{
    stats_.stream_recvs += 1;
    StreamShadow& stream = streams_[scope];
    const ProtocolSite current = Site(site, domain, seq);
    if (seq >= stream.next_send) {
        Report(ProtocolViolationKind::kPhantomMessage, current,
               stream.last_send);
        return;
    }
    if (seq < stream.next_recv) {
        Report(ProtocolViolationKind::kSeqnumRegression, current,
               stream.last_recv);
        return;
    }
    if (seq > stream.next_recv) {
        // The consumer accepted seq without the entries before it —
        // any decision based on this view skipped a message barrier.
        Report(ProtocolViolationKind::kBarrierSkip, current,
               stream.last_recv);
        // Resync so one gap does not cascade into a report per entry.
        stream.next_recv = seq + 1;
        stream.last_recv = current;
        return;
    }
    stream.next_recv = seq + 1;
    stream.last_recv = current;
}

void
ProtocolChecker::OnTaskState(const void* scope, std::int64_t tid,
                             TaskShadow state, const char* site)
{
    stats_.task_transitions += 1;
    TaskState& task =
        tasks_[ScopedKey{scope, static_cast<std::uint64_t>(tid)}];
    task.state = state;
    task.set_by = Site(site, Domain::kHost,
                       static_cast<std::uint64_t>(tid));
}

void
ProtocolChecker::OnCommitDecision(const void* scope, std::uint64_t txn_id,
                                  std::int64_t tid, bool run_decision,
                                  bool committed, const char* site)
{
    stats_.commits_checked += 1;
    if (!run_decision || !committed) return;
    const ProtocolSite current = Site(site, Domain::kHost, txn_id);
    TaskState& task =
        tasks_[ScopedKey{scope, static_cast<std::uint64_t>(tid)}];
    if (task.state == TaskShadow::kRunning) {
        Report(ProtocolViolationKind::kDoubleClaim, current, task.set_by);
    } else if (task.state != TaskShadow::kRunnable) {
        // The host accepted a decision its own thread-state machine
        // says is stale — the atomic commit (§3.2) should have failed
        // this transaction instead.
        Report(ProtocolViolationKind::kStaleViewCommit, current,
               task.set_by);
    }
    task.state = TaskShadow::kRunning;
    task.set_by = current;
}

void
ProtocolChecker::OnWatchdogArmed(const void* scope, const char* site)
{
    DogShadow& dog = dogs_[scope];
    dog.armed = true;
    dog.expired = false;
    (void)site;
}

void
ProtocolChecker::OnWatchdogExpired(const void* scope, const char* site)
{
    DogShadow& dog = dogs_[scope];
    dog.armed = false;
    dog.expired = true;
    dog.expired_at = Site(site, Domain::kHost, 0);
}

void
ProtocolChecker::OnWatchdogFed(const void* scope, const char* site)
{
    stats_.watchdog_feeds += 1;
    DogShadow& dog = dogs_[scope];
    if (dog.expired && !dog.armed) {
        // The agent was declared dead but its decisions are still
        // being accepted as liveness evidence — the kill/fallback
        // path (§3.3) was skipped.
        Report(ProtocolViolationKind::kCommitAfterTimeout,
               Site(site, Domain::kHost, 0), dog.expired_at);
    }
}

void
ProtocolChecker::Report(ProtocolViolationKind kind,
                        const ProtocolSite& current,
                        const ProtocolSite& previous)
{
    // One report per unique (kind, sites, ids): retries of a rejected
    // action must not flood the log with copies of one violation.
    std::uint64_t key = kFnvOffsetBasis;
    key = FnvByte(key, static_cast<std::uint8_t>(kind));
    key = FnvWord(key, current.id);
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(current.label));
    key = FnvWord(key, previous.id);
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(previous.label));
    key = FnvWord(key, previous.when.ns());
    if (!reported_.insert(key).second) return;

    violations_.push_back(ProtocolViolation{kind, current, previous});
    const std::string what = violations_.back().Describe();
    if (fail_fast_) {
        sim::Panic("protocol violation: %s", what.c_str());
    }
    sim::Warn("protocol violation: %s", what.c_str());
}

void
ProtocolChecker::Clear()
{
    txns_.clear();
    streams_.clear();
    tasks_.clear();
    dogs_.clear();
    violations_.clear();
    reported_.clear();
    stats_ = ProtocolStats{};
}

}  // namespace wave::check
