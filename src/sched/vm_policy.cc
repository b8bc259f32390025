// wave-domain: neutral
#include "sched/vm_policy.h"

#include "sim/logging.h"

namespace wave::sched {

void
VmPolicy::PinVcpu(ghost::Tid tid, int core)
{
    core_of_[tid] = core;
    const auto q = static_cast<std::size_t>(core);
    if (queues_.size() <= q) queues_.resize(q + 1);
}

std::size_t
VmPolicy::QueueOf(ghost::Tid tid) const
{
    auto it = core_of_.find(tid);
    WAVE_ASSERT(it != core_of_.end(), "vCPU %d was never pinned", tid);
    return static_cast<std::size_t>(it->second);
}

}  // namespace wave::sched
