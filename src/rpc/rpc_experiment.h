/**
 * @file
 * Harness for the §7.3 RPC experiments (Figure 6 and the §7.3.3
 * coherent-interconnect study).
 *
 * One configuration builds the full pipeline:
 *
 *   load generator -> RPC stack (protocol processing) -> steering
 *   stage (co-located with the scheduling agent) -> KV service worker
 *   (ghOSt-scheduled) -> RPC stack (response) -> latency recorded.
 *
 * The three §7.3.1 scenarios differ in component placement:
 *
 *   - OnHost-All: RPC stack on 8 host cores, scheduler on 1 host core,
 *     RocksDB on 15; everything over coherent shared memory.
 *   - OnHost-Scheduler: RPC stack offloaded to SmartNIC cores, the
 *     scheduler still on host — every steering decision reads RPC
 *     headers (and the SLO, in 6b) across PCIe.
 *   - Offload-All: RPC stack + scheduler both on the SmartNIC; RocksDB
 *     gets all 16 host cores; workers fetch requests via MMIO.
 */
// wave-domain: host
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "pcie/config.h"
#include "sim/task.h"
#include "sim/time.h"
#include "wave/runtime.h"
#include "workload/kv_service.h"
#include "workload/ladder.h"
#include "workload/request.h"
#include "workload/sched_experiment.h"

namespace wave::rpc {

/** Component placement per §7.3.1. */
enum class RpcScenario {
    kOnHostAll,
    kOnHostScheduler,
    kOffloadAll,
};

/** Full RPC experiment configuration. */
struct RpcExperimentConfig {
    RpcScenario scenario = RpcScenario::kOffloadAll;

    /** Single-queue (6a) vs SLO-aware multi-queue Shinjuku (6b). */
    bool multi_queue = false;

    /** RocksDB worker cores (15 or 16 per scenario). */
    int rocksdb_cores = 16;

    /** Cores running the RPC stack (host or NIC per scenario). */
    int rpc_cores = 8;

    int num_workers = 64;
    sim::DurationNs slice_ns = 30'000;

    /** Interconnect (swap for PcieConfig::Upi() in §7.3.3). */
    pcie::PcieConfig pcie = {};

    /** NIC-core speed override for the UPI frequency sweep (0=default). */
    double nic_speed = 0.0;

    double offered_rps = 150'000;
    double get_fraction = 0.995;
    sim::DurationNs get_service_ns = 10'000;
    sim::DurationNs range_service_ns = 10'000'000;

    sim::DurationNs warmup_ns = 100'000'000;
    sim::DurationNs measure_ns = 400'000'000;
    std::uint64_t seed = 42;
};

/** Results for one load point. */
struct RpcExperimentResult {
    double achieved_rps = 0;
    std::uint64_t completed = 0;
    sim::DurationNs get_p50 = 0;
    sim::DurationNs get_p99 = 0;
    sim::DurationNs range_p99 = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t steered = 0;
    /** Simulator event-stream fingerprint (determinism auditing). */
    std::uint64_t event_hash = 0;
};

/**
 * The steering stage, co-located with the scheduling agent (§7.3):
 * requests that finished protocol processing wait in @c queue for the
 * agent's next pass, which steers up to eight of them into @c service.
 */
struct SteeringStage {
    std::shared_ptr<std::deque<workload::Request>> queue;
    sim::DurationNs steer_ns = 0;         ///< per request, on the agent's core
    sim::DurationNs worker_fetch_ns = 0;  ///< added to its service time
    workload::KvService* service = nullptr;
    std::uint64_t steered = 0;
};

/**
 * The agent aux stage (ghost::AgentConfig::aux_stage) that runs
 * @p stage, which must outlive the agent. While the queue is empty it
 * returns an empty task, so an idle agent pass builds no frame for it.
 */
std::function<sim::Task<>(AgentContext&)> SteeringAuxStage(
    SteeringStage& stage);

/** Runs one load point. */
RpcExperimentResult RunRpcExperiment(const RpcExperimentConfig& cfg);

/**
 * Sweeps offered load and returns the saturation throughput: the
 * highest achieved rate whose achieved stays within @p efficiency of
 * offered and whose GET p99 stays below @p p99_slo_ns. Independent
 * load points run on parallel threads (see workload/ladder.h); the
 * answer is the serial walk's. @p visited, when given, receives the
 * walk's points.
 */
double FindRpcSaturation(const RpcExperimentConfig& base, double start_rps,
                         double end_rps, double step_rps,
                         sim::DurationNs p99_slo_ns = 500'000,
                         double efficiency = 0.97,
                         std::vector<workload::LadderPoint>* visited = nullptr);

}  // namespace wave::rpc
