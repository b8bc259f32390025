/**
 * @file
 * The Stubby-style RPC stack (§4.3).
 *
 * Incoming packets go through TCP/protocol processing on the stack's
 * CPUs (host cores in the vanilla deployment, SmartNIC ARM cores when
 * offloaded), then a *steering policy* decides which host core/worker
 * handles the request. Responses pass back through the stack for
 * serialization and transmission.
 *
 * The steering decision is where scheduler-RPC synergy lives: when the
 * RPC stack and the thread scheduler are co-located (both on the NIC,
 * §7.3), the steering stage reads headers — and the SLO inside the
 * payload — from local DRAM; when they are split across PCIe, every
 * steering decision pays MMIO reads, which is what sinks the
 * OnHost-Scheduler scenario in Figure 6.
 */
// wave-domain: host
#pragma once

#include <functional>

#include "machine/cpu.h"
#include "sim/simulator.h"
#include "workload/request.h"
#include "workload/server_pool.h"

namespace wave::rpc {

/** Protocol-processing cost model. */
struct RpcCosts {
    /** TCP + RPC decode per incoming request (reference core). */
    sim::DurationNs request_process_ns = 1'800;

    /** Response serialization + TX per reply. */
    sim::DurationNs response_process_ns = 1'200;
};

/** The RPC data plane: ingress and egress protocol processing. */
class RpcStack {
  public:
    /**
     * @param cpus the cores running the stack (8 host cores in
     *        OnHost-All; SmartNIC cores when offloaded).
     */
    RpcStack(sim::Simulator& sim, std::vector<machine::Cpu*> cpus,
             RpcCosts costs = {});

    /** Starts the protocol-processing workers. */
    void Start() { pool_.Start(); }

    /**
     * An RPC arrived from the network: after protocol processing,
     * @p deliver runs with the decoded request (ready for steering).
     */
    void ProcessIncoming(workload::Request request,
                         std::function<void(workload::Request)> deliver);

    /** A response is ready: after processing, @p sent runs. */
    void ProcessResponse(workload::Request request,
                         std::function<void(workload::Request)> sent);

  private:
    workload::ServerPool pool_;
    RpcCosts costs_;
};

}  // namespace wave::rpc
