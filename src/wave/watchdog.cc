// wave-domain: pcie
#include "wave/watchdog.h"

#include "check/hooks.h"
#include "check/protocol.h"
#include "sim/trace.h"

namespace wave {

Watchdog::Watchdog(sim::Simulator& sim, sim::DurationNs timeout,
                   sim::DurationNs check_interval,
                   std::function<void()> on_expire)
    : sim_(sim),
      timeout_(timeout),
      check_interval_(check_interval),
      on_expire_(std::move(on_expire))
{
}

void
Watchdog::Arm()
{
    ++generation_;
    armed_ = true;
    expired_ = false;
    last_decision_ = sim_.Now();
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnWatchdogArmed(this, "Watchdog::Arm");
        }
    });
    sim_.Spawn(Monitor());
}

void
Watchdog::NoteDecision()
{
    last_decision_ = sim_.Now();
    WAVE_CHECK_HOOK({
        if (protocol_ != nullptr) {
            protocol_->OnWatchdogFed(this, "Watchdog::NoteDecision");
        }
    });
}

void
Watchdog::Disarm()
{
    ++generation_;
    armed_ = false;
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the watchdog is owned by the runtime/enclave for the whole simulator run)
sim::Task<>
Watchdog::Monitor()
{
    const std::uint64_t my_generation = generation_;
    while (armed_ && generation_ == my_generation) {
        co_await sim_.Delay(check_interval_);
        if (!armed_ || generation_ != my_generation) {
            co_return;  // disarmed or re-armed while we slept
        }
        if (sim_.Now() - last_decision_ > timeout_) {
            expired_ = true;
            armed_ = false;
            // Record the expiry before on_expire_() so a synchronous
            // restart-and-rearm reaction leaves the shadow armed again.
            WAVE_CHECK_HOOK({
                if (protocol_ != nullptr) {
                    protocol_->OnWatchdogExpired(this,
                                                 "Watchdog::Monitor");
                }
            });
            WAVE_TRACE_EVENT(&sim_, "watchdog",
                             "expired: no decision for %llu ns",
                             static_cast<unsigned long long>(
                                 (sim_.Now() - last_decision_).ns()));
            on_expire_();
            co_return;
        }
    }
}

}  // namespace wave
