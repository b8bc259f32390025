// wave-domain: pcie
#include "pcie/msix.h"

#include "check/coherence.h"
#include "check/hb.h"
#include "check/hooks.h"
#include "sim/inject.h"

namespace wave::pcie {

// wave-lifetime(caller-awaits)
sim::Task<>
MsiXVector::Send(SendPath path)
{
    ++sends_;
    const sim::DurationNs send_cost = path == SendPath::kRegisterWrite
                                          ? config_.msix_send_ns
                                          : config_.msix_send_ioctl_ns;
    if (injector_ != nullptr && injector_->ShouldDropMsix()) {
        // Lost in flight: the sender still pays the register write, but
        // the pending bit never latches at the host. Recovery is the
        // receiver's problem (polling, watchdog).
        co_await sim_.Delay(send_cost);
        co_return;
    }
    // The end-to-end latency covers send initiation through handler
    // entry; the wire portion is what remains after subtracting the
    // sender and receiver CPU costs.
    sim::DurationNs wire = config_.msix_end_to_end_ns -
                           config_.msix_send_ns -
                           config_.msix_receive_ns;
    if (injector_ != nullptr) {
        wire += injector_->MsixExtraDelay();
    }
    // The send is the release half of the interrupt's HB edge; the
    // acquire fires at delivery below.
    WAVE_CHECK_HOOK({
        if (hb_ != nullptr) {
            hb_->OnRelease(hb_sender_, this, 0);
        }
    });
    sim_.Schedule(send_cost + wire, [this] {
        pending_ = true;
        WAVE_CHECK_HOOK({
            if (checker_ != nullptr) {
                checker_->OnOrderingPoint("msix-delivery");
            }
            if (hb_ != nullptr) {
                hb_->OnAcquire(hb_receiver_, this, 0);
            }
        });
        if (!masked_) {
            arrival_.NotifyAll();
            if (delivery_handler_) delivery_handler_();
        }
    });
    co_await sim_.Delay(send_cost);
}

// wave-lifetime(caller-awaits)
sim::Task<>
MsiXVector::WaitAndReceive()
{
    while (!pending_ || masked_) {
        co_await arrival_.Wait();
    }
    pending_ = false;
    co_await sim_.Delay(config_.msix_receive_ns);
}

bool
MsiXVector::ConsumePending()
{
    if (!pending_) return false;
    pending_ = false;
    return true;
}

}  // namespace wave::pcie
