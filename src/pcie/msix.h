/**
 * @file
 * MSI-X interrupt model (Table 2 rows 3-6).
 *
 * A SmartNIC agent sends an MSI-X vector to kick a specific host core
 * (step 5 of the Wave decision lifetime, Figure 2). The sender pays the
 * register-write cost (70 ns direct, 340 ns through the kernel ioctl
 * path); the interrupt reaches the host core after the one-way PCIe
 * trip; the host's handler entry costs the receive overhead (350 ns).
 * The end-to-end number in Table 2 (1.6 µs) is send + PCIe + receive.
 *
 * Vectors can be masked (the "disable interrupts under heavy load"
 * optimization from §5.1): sends while masked set only the pending bit,
 * which the host observes when it next polls.
 */
// wave-domain: pcie
#pragma once

#include <cstdint>
#include <functional>

#include "pcie/config.h"
#include "sim/actor.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace wave::check {
class CoherenceChecker;
class HbRaceDetector;
}

namespace wave::sim::inject {
class FaultInjector;
}

namespace wave::pcie {

/** One MSI-X vector targeting one host core. */
class MsiXVector {
  public:
    MsiXVector(sim::Simulator& sim, const PcieConfig& config)
        : sim_(sim), config_(config), arrival_(sim)
    {
    }

    /** How the sender reaches the MSI-X register. */
    enum class SendPath {
        kRegisterWrite,  ///< direct userspace register write (70 ns)
        kIoctl,          ///< through the NIC kernel (340 ns)
    };

    /**
     * Sends the interrupt. Costs the sender the register-write time;
     * the vector becomes pending at the host after the PCIe trip.
     */
    sim::Task<> Send(SendPath path = SendPath::kRegisterWrite);

    /**
     * Host side: suspends until the vector is pending, then clears it
     * and pays the interrupt receive cost. Models a core taking the
     * interrupt out of idle/halt.
     */
    sim::Task<> WaitAndReceive();

    /** Host side: consumes a pending interrupt without blocking. */
    bool ConsumePending();

    /** True if an interrupt is latched and unconsumed. */
    bool Pending() const { return pending_; }

    /** Masks the vector: sends latch the pending bit but do not wake. */
    void SetMasked(bool masked) { masked_ = masked; }

    /**
     * Registers a callback invoked at delivery time (when the vector
     * becomes pending at the host). Used to wire the vector into a host
     * core's interrupt controller; the interrupt *receive* cost is paid
     * by whoever handles it, not by this callback.
     */
    void SetDeliveryHandler(std::function<void()> handler)
    {
        delivery_handler_ = std::move(handler);
    }

    std::uint64_t SendCount() const { return sends_; }

    /**
     * Attaches the fault injector; sends then consult it for extra
     * wire delay and for drops (the interrupt is lost in flight: the
     * sender pays its cost but the pending bit never latches).
     */
    void SetFaultInjector(sim::inject::FaultInjector* injector)
    {
        injector_ = injector;
    }

    /**
     * Attaches the wave::check coherence checker; deliveries are then
     * recorded as "msix-delivery" ordering points.
     */
    void AttachChecker(check::CoherenceChecker* checker)
    {
        checker_ = checker;
    }

    /**
     * Attaches the happens-before detector: every send is a release by
     * @p sender, every delivery an acquire by @p receiver, giving the
     * interrupt its natural cross-domain synchronization edge.
     */
    void
    AttachHb(check::HbRaceDetector* hb, sim::ActorId sender,
             sim::ActorId receiver)
    {
        hb_ = hb;
        hb_sender_ = sender;
        hb_receiver_ = receiver;
    }

  private:
    sim::Simulator& sim_;
    PcieConfig config_;
    sim::Signal arrival_;
    std::function<void()> delivery_handler_;
    sim::inject::FaultInjector* injector_ = nullptr;
    check::CoherenceChecker* checker_ = nullptr;
    check::HbRaceDetector* hb_ = nullptr;
    sim::ActorId hb_sender_ = sim::kNoActor;
    sim::ActorId hb_receiver_ = sim::kNoActor;
    bool pending_ = false;
    bool masked_ = false;
    std::uint64_t sends_ = 0;
};

}  // namespace wave::pcie
