/**
 * @file
 * Executes one fuzz Scenario under the checker oracles.
 *
 * The runner builds its deployment through workload::Testbed, like
 * the §7.2 experiment harness — machine, Wave transport, ghOSt kernel,
 * agent on a NIC core, KV service, open-loop load generator — and uses
 * the builder's optional stages:
 *
 *   - the scenario's fault schedule, wired into the PCIe fabric,
 *     kernel, and txn endpoints;
 *   - supervision (watchdog + host fallback) so agent crash and wedge
 *     faults exercise the §3.3 recovery path;
 *
 * plus a drain phase after arrivals stop, long enough for the fallback
 * to absorb any backlog.
 *
 * Oracles, evaluated after the run:
 *   1. coherence  — CoherenceChecker::Violations() must be empty,
 *   2. protocol   — ProtocolChecker::Violations() must be empty; the
 *                   kernel is attached, so its commits and task state
 *                   machines are checked along with the queues,
 *   3. hb-race    — HbRaceDetector::Races() must be empty,
 *   4. liveness   — with require_progress, every accepted request must
 *                   have completed and progress must resume after the
 *                   last fault (watchdog-fallback bounded recovery).
 * A fifth, determinism, is a two-run property: CheckDeterminism() runs
 * the scenario twice and compares event-stream fingerprints.
 */
// wave-domain: harness
#pragma once

#include <string>
#include <vector>

#include "fuzz/scenario.h"
#include "sim/inject.h"

namespace wave::fuzz {

/** One oracle complaint (oracle name + one-line diagnostic). */
struct OracleFailure {
    std::string oracle;
    std::string detail;
};

/** Everything a fuzz loop or test wants to know about one run. */
struct RunResult {
    std::uint64_t event_hash = 0;      ///< simulator event fingerprint
    std::uint64_t completed = 0;       ///< requests completed (total)
    std::uint64_t pending_at_end = 0;  ///< requests still queued at stop
    std::uint64_t commits_failed = 0;
    std::uint64_t agent_decisions = 0;
    std::uint64_t commits_checked = 0;   ///< protocol checker: kernel commits
    std::uint64_t task_transitions = 0;  ///< protocol checker: task states
    sim::inject::InjectStats inject;   ///< per-kind fault hit counts
    std::uint64_t watchdog_expiries = 0;
    bool fallback_active = false;      ///< host fallback agent took over
    std::uint64_t fallback_at = 0;     ///< virtual time of the takeover
    std::vector<OracleFailure> failures;

    bool Ok() const { return failures.empty(); }

    /** All failures, one per line (test/CLI reporting). */
    std::string Describe() const;
};

/** Runs @p s to completion and evaluates the post-run oracles. */
RunResult RunScenario(const Scenario& s);

/**
 * Runs @p s twice and compares event fingerprints; on mismatch appends
 * a "determinism" failure to the (first run's) result. Returns that
 * first-run result either way.
 */
RunResult RunScenarioTwice(const Scenario& s);

}  // namespace wave::fuzz
