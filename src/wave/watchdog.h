/**
 * @file
 * On-host watchdog for SmartNIC agents (§3.3).
 *
 * Each offloaded system-software component has an on-host watchdog that
 * kills its agent when the agent stops making decisions (default
 * threshold: 20 ms, the paper's thread-scheduler value). The host
 * subsystem calls NoteDecision() whenever it receives a decision; the
 * watchdog process periodically checks staleness and, on expiry, runs a
 * caller-supplied reaction — typically KILL_WAVE_AGENT followed by
 * either an agent restart or a fallback to on-host system software.
 * Recovery is simple because the host kernel stays the source of truth
 * for non-policy state (§6): a restarted agent just re-pulls state.
 */
// wave-domain: pcie
#pragma once

#include <functional>

#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace wave::check {
class ProtocolChecker;
}

namespace wave {

/** Host-side liveness monitor for one agent. */
class Watchdog {
  public:
    /**
     * @param timeout decision-staleness threshold before expiry.
     * @param check_interval how often the watchdog polls.
     * @param on_expire reaction (kill/restart/fallback). Called at most
     *        once per Arm() cycle.
     */
    Watchdog(sim::Simulator& sim, sim::DurationNs timeout,
             sim::DurationNs check_interval,
             std::function<void()> on_expire);

    /** Starts monitoring; the first deadline is timeout from now. */
    void Arm();

    /** Stops monitoring (e.g. during planned agent upgrades). */
    void Disarm();

    /** Records that the agent produced a decision. */
    void NoteDecision();

    bool Expired() const { return expired_; }

    /**
     * Attaches the protocol verifier, which flags decisions accepted
     * as liveness evidence after expiry but before a re-arm — i.e. the
     * kill/fallback path of §3.3 was skipped.
     */
    void AttachProtocol(check::ProtocolChecker* protocol)
    {
        protocol_ = protocol;
    }

  private:
    sim::Task<> Monitor();

    sim::Simulator& sim_;
    sim::DurationNs timeout_;
    sim::DurationNs check_interval_;
    std::function<void()> on_expire_;
    sim::TimeNs last_decision_{};
    bool armed_ = false;
    bool expired_ = false;
    std::uint64_t generation_ = 0;  ///< invalidates stale monitor loops
    check::ProtocolChecker* protocol_ = nullptr;
};

}  // namespace wave
