/**
 * @file
 * The NIC-core contention sweep: Wave's scheduling agent sharing
 * SmartNIC cores with a live offload datapath (ROADMAP item 3).
 *
 * One run builds the full deployment — host workers + KV service + load
 * generator, the ghOSt agent on NIC core 0 over the Wave/PCIe
 * transport, and the offload pipeline with dedicated workers on NIC
 * cores 1..N-1 plus a bounded co-located slice on the agent's own core
 * — then offers datapath load equal to `core_share` of the NIC's
 * aggregate stage-processing capacity. Sweeping core_share 0 → 1
 * reproduces the question the paper assumes away: how much datapath
 * contention can the resource-management agent absorb before its
 * reaction time (iteration tail latency) and its policy quality (KV
 * p99) degrade?
 *
 * The deployment is built by workload::Testbed. The harness also
 * carries the fault-injection knobs (NIC slowdown, agent stall/crash
 * via sim::inject) and the AgentSupervisor watchdog; both go through
 * the builder's stages, so recovery tests drive fault interplay through
 * the same wiring the fuzzer uses.
 */
// wave-domain: host
#pragma once

#include <cstdint>
#include <vector>

#include "offload/packetgen.h"
#include "offload/pipeline.h"
#include "sim/inject.h"
#include "sim/time.h"

namespace wave::offload {

/** One contention-sweep point. */
struct OffloadSweepConfig {
    // --- topology ---
    int worker_cores = 8;  ///< host cores running KV workers
    int num_workers = 32;  ///< KV worker threads
    int nic_cores = 8;     ///< agent on core 0, datapath on 1..N-1

    // --- the sweep axis ---
    /**
     * Offered datapath load as a fraction of the NIC's aggregate
     * stage-processing capacity: packet rate = core_share *
     * full_rate_pps. 0 disables the datapath entirely (the isolation
     * baseline); 1.0 saturates every NIC core including the agent's.
     */
    double core_share = 0.5;

    /** Packet rate that saturates the NIC datapath (calibrated). */
    double full_rate_pps = 900'000;

    // --- datapath shape ---
    Placement placement = Placement::kRunToCompletion;
    std::size_t flows = 256;

    // --- host workload ---
    double offered_rps = 150'000;

    // --- windows ---
    std::uint64_t warmup_ns = 15'000'000;
    std::uint64_t measure_ns = 50'000'000;
    std::uint64_t drain_ns = 5'000'000;

    std::uint64_t seed = 42;

    // --- faults + supervision (recovery interplay tests) ---
    std::vector<sim::inject::FaultSpec> faults;
    bool supervise = false;
    std::uint64_t watchdog_timeout_ns = 20'000'000;
    std::uint64_t watchdog_check_ns = 500'000;
};

/** Everything one sweep point reports. */
struct OffloadSweepResult {
    // Agent responsiveness.
    std::uint64_t agent_iterations = 0;
    std::uint64_t agent_iter_p50 = 0;
    std::uint64_t agent_iter_p99 = 0;
    std::uint64_t agent_iter_p999 = 0;

    // Scheduling policy quality (the host KV workload).
    std::uint64_t completed = 0;
    double achieved_rps = 0;
    std::uint64_t get_p50 = 0;
    std::uint64_t get_p99 = 0;

    // Datapath.
    std::uint64_t packets_injected = 0;
    std::uint64_t packets_completed = 0;
    std::uint64_t packets_denied = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t packets_pending = 0;
    double achieved_pps = 0;  ///< window arrivals retired / window
    std::uint64_t packet_p50 = 0;
    std::uint64_t packet_p99 = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t scan_hits = 0;
    std::uint64_t new_flows = 0;

    // Occupancy over the measure window.
    double agent_core_busy = 0;
    double datapath_core_busy = 0;  ///< mean over cores 1..N-1

    // Recovery.
    std::uint64_t watchdog_expiries = 0;
    bool fallback_active = false;
    std::uint64_t fallback_at_ns = 0;

    std::uint64_t event_hash = 0;
};

OffloadSweepResult RunOffloadSweep(const OffloadSweepConfig& cfg);

}  // namespace wave::offload
