// wave-domain: nic
#include "sol/policy.h"

#include <algorithm>

namespace wave::sol {

SolPolicy::SolPolicy(const SolConfig& config, std::size_t num_batches)
    : config_(config), batches_(num_batches), rng_(config.seed)
{
    WAVE_ASSERT(!config_.scan_periods.empty());
    WAVE_ASSERT(config_.period_thresholds.size() + 1 ==
                    config_.scan_periods.size(),
                "thresholds must partition the period ladder");
}

bool
SolPolicy::ScanBatch(std::size_t batch, std::uint64_t accessed_pages,
                     sim::TimeNs now)
{
    WAVE_ASSERT(batch < batches_.size());
    BatchState& state = batches_[batch];
    if (state.next_scan > now) return false;

    // Fractional evidence: the share of the batch's pages touched since
    // the last scan. A hot 256 KiB batch has most of its pages accessed
    // even in a short interval; a cold batch collects only stray
    // touches. Fractional pseudo-counts keep the Beta posterior well
    // defined.
    const double fraction =
        std::min(1.0, static_cast<double>(accessed_pages) /
                          static_cast<double>(config_.pages_per_batch));
    state.alpha += fraction;
    state.beta += 1.0 - fraction;

    // Thompson sampling: draw a hotness estimate from the posterior and
    // map it onto the scan-period ladder — likely-hot batches are
    // scanned often (their state changes matter), likely-cold ones
    // rarely (each scan costs a TLB flush).
    const double theta = rng_.NextBeta(state.alpha, state.beta);
    std::size_t index = config_.period_thresholds.size();  // slowest
    for (std::size_t i = 0; i < config_.period_thresholds.size(); ++i) {
        if (theta >= config_.period_thresholds[i]) {
            index = i;
            break;
        }
    }
    state.period_index = index;
    state.next_scan = now + config_.scan_periods[index];
    return true;
}

std::vector<std::pair<std::size_t, memmgr::Tier>>
SolPolicy::EpochPlan()
{
    std::vector<std::pair<std::size_t, memmgr::Tier>> plan;
    for (std::size_t i = 0; i < batches_.size(); ++i) {
        BatchState& state = batches_[i];
        const double mean = state.alpha / (state.alpha + state.beta);
        const memmgr::Tier want = mean > config_.hot_threshold
                                      ? memmgr::Tier::kFast
                                      : memmgr::Tier::kSlow;
        if (want != state.tier) {
            state.tier = want;
            plan.emplace_back(i, want);
        }
    }
    return plan;
}

}  // namespace wave::sol
