// wave-domain: neutral
#include "sched/fifo.h"

namespace wave::sched {

void
FifoPolicy::Enqueue(ghost::Tid tid, bool front)
{
    if (dead_.count(tid) > 0 || queued_.count(tid) > 0) return;
    auto& queue = queues_[QueueOf(tid)];
    if (front) {
        queue.push_front(tid);
    } else {
        queue.push_back(tid);
    }
    queued_.insert(tid);
}

void
FifoPolicy::OnMessage(const ghost::GhostMessage& message)
{
    switch (message.type) {
      case ghost::MsgType::kThreadCreated:
      case ghost::MsgType::kThreadWakeup:
      case ghost::MsgType::kThreadYield:
      case ghost::MsgType::kThreadPreempted:
        Enqueue(message.tid, /*front=*/false);
        break;
      case ghost::MsgType::kThreadBlocked:
        break;  // it will come back with a wakeup
      case ghost::MsgType::kThreadDead:
        dead_.insert(message.tid);
        break;
    }
}

std::optional<ghost::GhostDecision>
FifoPolicy::PickNext(int core, sim::TimeNs /*now*/)
{
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        if (queues_[q].empty()) continue;  // idle agents ask for every core
        if (auto decision = PickFrom(q, core)) {
            decision->slo_class = static_cast<std::uint32_t>(q);
            return decision;
        }
    }
    return std::nullopt;
}

std::optional<ghost::GhostDecision>
FifoPolicy::PickFrom(std::size_t q, int core)
{
    auto& queue = queues_[q];
    while (!queue.empty()) {
        const ghost::Tid tid = queue.front();
        queue.pop_front();
        queued_.erase(tid);
        if (dead_.count(tid) > 0) continue;
        ghost::GhostDecision decision{};
        decision.type = ghost::DecisionType::kRunThread;
        decision.tid = tid;
        decision.core = core;
        decision.slice_ns = slice_ns_;
        return decision;
    }
    return std::nullopt;
}

void
FifoPolicy::OnDecisionFailed(const ghost::GhostDecision& decision)
{
    // Preserve FIFO order: the thread lost its turn through no fault of
    // its own, so it goes back to the front (unless it died).
    Enqueue(decision.tid, /*front=*/true);
}

}  // namespace wave::sched
