/**
 * @file
 * Simulated key-value service (the RocksDB stand-in).
 *
 * A dispatcher feeds requests to a pool of ghOSt-class worker threads,
 * one request per thread wake — the per-request scheduling pattern the
 * paper's RocksDB experiments stress. When no worker is idle, requests
 * queue at the dispatcher; when a worker finishes and more work is
 * pending, the dispatcher re-arms it immediately (the wake rides the
 * kernel's wake-while-running path, so every request still goes through
 * a full scheduling decision).
 *
 * Request latency is measured arrival -> completion, per request kind,
 * within a configurable measurement window.
 */
// wave-domain: host
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ghost/kernel.h"
#include "ghost/thread.h"
#include "stats/histogram.h"
#include "workload/request.h"

namespace wave::workload {

class KvWorkerBody;

/** Dispatcher + worker pool serving KV requests. */
class KvService {
  public:
    /**
     * Creates @p num_workers ghOSt worker threads (tids starting at
     * @p first_tid) registered with @p kernel.
     *
     * @param on_assign optional hook invoked when a request is assigned
     *        to a worker — the RPC/scheduling integration uses it to
     *        tag the thread's SLO class with the policy.
     */
    KvService(sim::Simulator& sim, ghost::KernelSched& kernel,
              int num_workers, ghost::Tid first_tid = 1000,
              std::function<void(ghost::Tid, std::uint32_t)> on_assign = {});

    /** Submits a request: assigns an idle worker or queues it. */
    void Submit(Request request);

    /**
     * When set, completions are handed to the hook instead of being
     * recorded internally — the RPC pipeline uses this to route
     * responses back through the RPC stack before measuring latency.
     */
    void
    SetCompletionHook(std::function<void(const Request&)> hook)
    {
        completion_hook_ = std::move(hook);
    }

    /** Only requests arriving inside [start, end) are recorded. */
    void
    SetMeasureWindow(sim::TimeNs start, sim::TimeNs end)
    {
        window_start_ = start;
        window_end_ = end;
    }

    /** Latency histogram for a request kind (window-filtered). */
    const stats::Histogram&
    Latency(RequestKind kind) const
    {
        return latency_[static_cast<std::size_t>(kind)];
    }

    /** Completed requests whose arrival fell inside the window. */
    std::uint64_t CompletedInWindow() const { return completed_in_window_; }

    /** All completions since start. */
    std::uint64_t Completed() const { return completed_; }

    /** Requests waiting at the dispatcher right now. */
    std::size_t PendingDepth() const { return pending_.size(); }

  private:
    friend class KvWorkerBody;

    /** Worker finished its request; rearm it or mark it idle. */
    void OnWorkerDone(int worker_index, const Request& request);

    void Assign(int worker_index, Request request);

    sim::Simulator& sim_;
    ghost::KernelSched& kernel_;
    std::function<void(ghost::Tid, std::uint32_t)> on_assign_;
    std::vector<std::shared_ptr<KvWorkerBody>> workers_;
    std::vector<ghost::Tid> worker_tids_;
    std::deque<int> idle_workers_;
    std::deque<Request> pending_;
    std::function<void(const Request&)> completion_hook_;
    stats::Histogram latency_[2];
    sim::TimeNs window_start_{};
    sim::TimeNs window_end_{~0ull};
    std::uint64_t completed_ = 0;
    std::uint64_t completed_in_window_ = 0;
};

/** Worker thread body: serves one assigned request per wake. */
class KvWorkerBody : public ghost::ThreadBody {
  public:
    KvWorkerBody(KvService* service, int index)
        : service_(service), index_(index)
    {
    }

    sim::Task<ghost::RunStop> Run(ghost::RunContext& ctx) override;

  private:
    friend class KvService;

    KvService* service_;
    int index_;
    std::optional<Request> assigned_;
    sim::DurationNs remaining_ = 0;
};

}  // namespace wave::workload
