/**
 * @file
 * Host + SmartNIC machine topology.
 *
 * Builds the simulated testbed from the paper's evaluation setup: an AMD
 * Zen3-style host (CCXs of 8 physical cores, SMT2, 2.45-3.5 GHz) and an
 * Intel Mount Evans-style SmartNIC SoC (16 ARM Neoverse N1 cores @
 * 3.0 GHz). Only the parameters the experiments depend on are modelled;
 * they are all configurable.
 */
// wave-domain: neutral
#pragma once

#include <memory>
#include <vector>

#include "machine/cpu.h"
#include "machine/cycles.h"
#include "sim/simulator.h"

namespace wave::machine {

/**
 * The reference clock: one host x86 core at maximum turbo (3.5 GHz).
 * Work costs throughout the model are expressed in nanoseconds at this
 * frequency; ClockDomain speed ratios scale them to other cores.
 */
inline constexpr FreqGhz kReferenceFreq{3.5};

/** Testbed shape and speed parameters (defaults match the paper §7). */
struct MachineConfig {
    /** Host logical cores to instantiate (first SMT siblings only). */
    int host_cores = 16;

    /** Physical cores per CCX (shared L3 domain). */
    int ccx_size = 8;

    /**
     * Host core speed relative to the reference (host at max turbo).
     * Microsecond-scale experiments run with few cores active, i.e. at
     * full turbo, hence the default of 1.0.
     */
    double host_speed = 1.0;

    /** SmartNIC ARM cores to instantiate. */
    int nic_cores = 16;

    /**
     * NIC ARM core speed relative to the reference host core. The
     * Neoverse N1 @ 3.0 GHz vs Zen3 @ 3.5 GHz lands around 0.61 for the
     * policy code in §7.4 (calibrated from the paper's SOL table).
     */
    double nic_speed = 0.61;
};

/** The simulated testbed: host cores, NIC cores, and clock domains. */
class Machine {
  public:
    Machine(sim::Simulator& sim, const MachineConfig& config = {})
        : config_(config),
          host_domain_(config.host_speed),
          nic_domain_(config.nic_speed)
    {
        for (int i = 0; i < config.host_cores; ++i) {
            host_.push_back(std::make_unique<Cpu>(
                sim, "host" + std::to_string(i), &host_domain_));
        }
        for (int i = 0; i < config.nic_cores; ++i) {
            nic_.push_back(std::make_unique<Cpu>(
                sim, "nic" + std::to_string(i), &nic_domain_));
        }
    }

    Cpu& HostCpu(int i) { return *host_.at(static_cast<std::size_t>(i)); }
    Cpu& NicCpu(int i) { return *nic_.at(static_cast<std::size_t>(i)); }

    int HostCoreCount() const { return static_cast<int>(host_.size()); }
    int NicCoreCount() const { return static_cast<int>(nic_.size()); }

    /** CCX index of a host core (cores in a CCX share an L3). */
    int CcxOf(int host_core) const { return host_core / config_.ccx_size; }

    ClockDomain& HostDomain() { return host_domain_; }
    ClockDomain& NicDomain() { return nic_domain_; }

  private:
    MachineConfig config_;
    ClockDomain host_domain_;
    ClockDomain nic_domain_;
    std::vector<std::unique_ptr<Cpu>> host_;
    std::vector<std::unique_ptr<Cpu>> nic_;
};

}  // namespace wave::machine
