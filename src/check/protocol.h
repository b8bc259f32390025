/**
 * @file
 * Runtime state-machine verifier for the ghOSt/Wave protocol contract.
 *
 * The coherence checker (coherence.h) catches byte-level staleness; it
 * cannot see *logical* protocol violations where every individual
 * access is coherent but the sequence breaks the contract the paper's
 * correctness argument rests on (§3.2, §4): transactions must move
 * created -> published -> delivered -> outcome-reported exactly once,
 * message streams must be received in seqnum order with no gaps, the
 * host must never report a commit against a thread view that its own
 * state machine says is stale, and a watchdog-expired agent must not
 * keep producing accepted decisions.
 *
 * This checker shadows those state machines from instrumentation hooks
 * in the txn endpoints, the queue endpoints, the kernel scheduling
 * class, and the watchdog. Every violation carries *both* participating
 * sites — the action that tripped the rule and the earlier action that
 * set the state it conflicts with — mirroring the coherence checker's
 * two-site attribution.
 *
 * All hooks compile away under -DWAVE_CHECK=OFF (see check/hooks.h).
 */
// wave-domain: neutral
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/coherence.h"  // for check::Domain
#include "sim/time.h"

namespace wave::sim {
class Simulator;
}

namespace wave::check {

/** Which protocol rule a violation broke. */
enum class ProtocolViolationKind {
    /** The same transaction id was published (TXNS_COMMIT) twice. */
    kDoubleCommit,
    /** Two agents created/claimed the same txn id on one queue. */
    kTxnClaimedTwice,
    /** The host reported an outcome for one txn twice. */
    kDuplicateOutcome,
    /** An outcome was reported for a txn the host never received. */
    kOutcomeBeforeDelivery,
    /** An outcome references a txn id that was never created. */
    kPhantomOutcome,
    /** A delivered/observed record references an unknown txn id. */
    kUnknownTxn,
    /** A stream receive went backwards (seqnum monotonicity). */
    kSeqnumRegression,
    /** A stream receive skipped seqnums (barrier-before-decision). */
    kBarrierSkip,
    /** A stream receive of a seqnum that was never sent. */
    kPhantomMessage,
    /** Commit reported OK against a thread view that was not runnable. */
    kStaleViewCommit,
    /** Commit reported OK for a thread already running elsewhere. */
    kDoubleClaim,
    /** A decision was accepted after watchdog expiry, before re-arm. */
    kCommitAfterTimeout,
};

const char* ProtocolViolationKindName(ProtocolViolationKind kind);

/** Kernel-visible thread state as the checker shadows it. */
enum class TaskShadow {
    kUnknown,
    kRunnable,
    kRunning,
    kBlocked,
    kDead,
};

/**
 * One side of a reported protocol violation.
 *
 * @note @p label must point at storage that outlives the checker
 *       (instrumentation sites pass string literals).
 */
struct ProtocolSite {
    const char* label = "?";  ///< e.g. "NicTxnEndpoint::TxnsCommit"
    Domain domain = Domain::kHost;
    std::uint64_t id = 0;   ///< txn id / seqnum / tid, per the kind
    sim::TimeNs when{};   ///< simulated time of the action
};

/** A detected protocol violation, with both participating sites. */
struct ProtocolViolation {
    ProtocolViolationKind kind;
    ProtocolSite current;   ///< the action that tripped the rule
    ProtocolSite previous;  ///< the earlier conflicting action

    /** One-line diagnostic, e.g. for test failure messages. */
    std::string Describe() const;
};

/** Aggregate instrumentation counters (cheap sanity metrics). */
struct ProtocolStats {
    std::uint64_t txns_created = 0;
    std::uint64_t txns_published = 0;
    std::uint64_t txns_delivered = 0;
    std::uint64_t outcomes_reported = 0;
    std::uint64_t outcomes_observed = 0;
    std::uint64_t stream_sends = 0;
    std::uint64_t stream_recvs = 0;
    std::uint64_t commits_checked = 0;
    std::uint64_t task_transitions = 0;
    std::uint64_t watchdog_feeds = 0;
};

/**
 * The protocol state-machine verifier.
 *
 * Scopes are opaque tags identifying one protocol instance — one
 * decision queue for the txn lifecycle, one message queue for a seqnum
 * stream, one KernelSched for the task-state machine, one Watchdog for
 * liveness — so independent enclaves sharing a checker never alias.
 */
class ProtocolChecker {
  public:
    explicit ProtocolChecker(sim::Simulator& sim) : sim_(sim) {}

    ProtocolChecker(const ProtocolChecker&) = delete;
    ProtocolChecker& operator=(const ProtocolChecker&) = delete;

    // --- Transaction lifecycle (scope = one decision queue) ---

    /** TXN_CREATE: an agent claimed @p id and staged a decision. */
    void OnTxnCreated(const void* scope, std::uint64_t id, Domain domain,
                      const char* site);

    /** TXNS_COMMIT: @p id was published to the host. */
    void OnTxnPublished(const void* scope, std::uint64_t id, Domain domain,
                        const char* site);

    /** POLL_TXNS: the host pulled @p id off the queue. */
    void OnTxnDelivered(const void* scope, std::uint64_t id, Domain domain,
                        const char* site);

    /** SET_TXNS_OUTCOMES: the host reported @p id's commit outcome. */
    void OnTxnOutcome(const void* scope, std::uint64_t id, Domain domain,
                      const char* site);

    /** POLL_TXNS_OUTCOMES: the agent observed @p id's outcome. */
    void OnTxnOutcomeObserved(const void* scope, std::uint64_t id,
                              Domain domain, const char* site);

    // --- Message streams (scope = one queue endpoint pair) ---

    /** The producer published the entry with absolute seqnum @p seq. */
    void OnStreamSend(const void* scope, std::uint64_t seq, Domain domain,
                      const char* site);

    /** The consumer accepted the entry with absolute seqnum @p seq. */
    void OnStreamRecv(const void* scope, std::uint64_t seq, Domain domain,
                      const char* site);

    // --- Kernel task state machine (scope = one KernelSched) ---

    /** The kernel moved @p tid to @p state (the source of truth, §6). */
    void OnTaskState(const void* scope, std::int64_t tid, TaskShadow state,
                     const char* site);

    /**
     * The host resolved a commit attempt. For committed run-decisions
     * the checker validates the thread's shadow state: committing a
     * thread that is already running is a double claim; committing one
     * that is blocked/dead/unknown means the host enforced a decision
     * against a stale view that its atomic commit should have failed.
     *
     * @param run_decision false for idle decisions (nothing to check).
     * @param committed whether the host reported kCommitted.
     */
    void OnCommitDecision(const void* scope, std::uint64_t txn_id,
                          std::int64_t tid, bool run_decision,
                          bool committed, const char* site);

    // --- Watchdog liveness (scope = one Watchdog) ---

    void OnWatchdogArmed(const void* scope, const char* site);
    void OnWatchdogExpired(const void* scope, const char* site);

    /** A decision from the agent was accepted as liveness evidence. */
    void OnWatchdogFed(const void* scope, const char* site);

    // --- Results ---

    const std::vector<ProtocolViolation>&
    Violations() const
    {
        return violations_;
    }
    const ProtocolStats& Stats() const { return stats_; }

    /** When true, the first violation panics instead of recording. */
    void SetFailFast(bool on) { fail_fast_ = on; }

    /** Drops all recorded violations and shadow state. */
    void Clear();

  private:
    /** Lifecycle shadow of one transaction. */
    struct TxnShadow {
        enum class Phase { kCreated, kPublished, kDelivered, kResolved };
        Phase phase = Phase::kCreated;
        ProtocolSite created;
        ProtocolSite last_event;  ///< most recent lifecycle action
    };

    /** Seqnum shadow of one stream. */
    struct StreamShadow {
        std::uint64_t next_send = 0;
        std::uint64_t next_recv = 0;
        ProtocolSite last_send;
        ProtocolSite last_recv;
    };

    /** Shadow of one kernel-visible thread. */
    struct TaskState {
        TaskShadow state = TaskShadow::kUnknown;
        ProtocolSite set_by;
    };

    /** Shadow of one watchdog. */
    struct DogShadow {
        bool armed = false;
        bool expired = false;
        ProtocolSite expired_at;
    };

    struct ScopedKey {
        const void* scope;
        std::uint64_t id;

        bool
        operator==(const ScopedKey& other) const
        {
            return scope == other.scope && id == other.id;
        }
    };

    struct ScopedKeyHash {
        std::size_t
        operator()(const ScopedKey& key) const
        {
            return std::hash<const void*>()(key.scope) ^
                   (key.id * 0x9e3779b97f4a7c15ULL);
        }
    };

    ProtocolSite Site(const char* label, Domain domain,
                      std::uint64_t id) const;

    void Report(ProtocolViolationKind kind, const ProtocolSite& current,
                const ProtocolSite& previous);

    sim::Simulator& sim_;
    std::unordered_map<ScopedKey, TxnShadow, ScopedKeyHash> txns_;
    std::unordered_map<const void*, StreamShadow> streams_;
    std::unordered_map<ScopedKey, TaskState, ScopedKeyHash> tasks_;
    std::unordered_map<const void*, DogShadow> dogs_;
    std::vector<ProtocolViolation> violations_;
    std::unordered_set<std::uint64_t> reported_;  ///< dedup keys
    ProtocolStats stats_;
    bool fail_fast_ = false;
};

}  // namespace wave::check
