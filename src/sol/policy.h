/**
 * @file
 * The SOL machine-learning memory policy (§4.2, reproducing Wang et
 * al.'s "SOL: Safe on-node learning in cloud platforms").
 *
 * SOL groups consecutive pages into batches (64 x 4 KiB = 256 KiB),
 * models each batch's hotness with a Beta posterior, and uses Thompson
 * sampling to decide how often to scan each batch's access bits (the
 * ladder 600 ms ... 9.6 s used in §7.4.1; scanning costs a TLB flush,
 * so cold batches should be scanned rarely). Once per 38.4 s epoch —
 * 4x the slowest scan period — batches are classified hot/cold and
 * migrated between the fast tier (local DRAM) and the slow tier.
 *
 * The policy is deliberately compute-hungry (it is the paper's example
 * of ML-based system software that is costly without offload): every
 * scanned batch pays posterior-update + sampling compute, calibrated
 * so the §7.4.2 per-iteration table reproduces.
 */
// wave-domain: nic
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "memmgr/address_space.h"
#include "memmgr/policy.h"
#include "sim/random.h"
#include "sim/time.h"

namespace wave::sol {

/** SOL configuration (§7.4.1 evaluation defaults). */
struct SolConfig {
    /** Pages per classification batch (64 x 4 KiB = 256 KiB). */
    std::size_t pages_per_batch = 64;

    /** Scan-period ladder, fastest first. */
    std::vector<sim::DurationNs> scan_periods = {
        600'000'000ull,    // 600 ms
        1'200'000'000ull,  // 1.2 s
        2'400'000'000ull,  // 2.4 s
        4'800'000'000ull,  // 4.8 s
        9'600'000'000ull,  // 9.6 s
    };

    /** Migration epoch: 4x the slowest scan period. */
    sim::DurationNs epoch_ns = 38'400'000'000ull;  // 38.4 s

    /** Posterior-mean threshold for the fast tier at epoch time. */
    double hot_threshold = 0.25;

    /** Thompson-sample thresholds selecting the scan period. */
    std::vector<double> period_thresholds = {0.5, 0.3, 0.2, 0.1};

    /** Parallelizable compute per scanned batch (reference core). */
    sim::DurationNs scan_compute_per_batch_ns = 870;

    /** Serial merge/bookkeeping compute per scanned batch. */
    sim::DurationNs merge_compute_per_batch_ns = 400;

    std::uint64_t seed = 7;
};

/** Per-batch learning state. */
struct BatchState {
    double alpha = 1.0;  ///< Beta prior: accesses observed
    double beta = 1.0;   ///< Beta prior: quiet scans observed
    std::size_t period_index = 0;
    sim::TimeNs next_scan{};
    memmgr::Tier tier = memmgr::Tier::kFast;
};

/** The SOL decision logic (no timing; agents charge compute). */
class SolPolicy : public memmgr::MemPolicy {
  public:
    SolPolicy(const SolConfig& config, std::size_t num_batches);

    std::string Name() const override { return "sol"; }

    /**
     * Scans one batch that is due: consumes the harvested access count,
     * updates the posterior, Thompson-samples the next scan period.
     * Returns true if the batch was due and scanned.
     */
    bool ScanBatch(std::size_t batch, std::uint64_t accessed_pages,
                   sim::TimeNs now) override;

    /** True if the batch's next scan time has arrived. */
    bool
    Due(std::size_t batch, sim::TimeNs now) const override
    {
        return batches_[batch].next_scan <= now;
    }

    /**
     * Epoch classification: returns the migration plan as (batch, tier)
     * pairs for batches whose tier should change.
     */
    std::vector<std::pair<std::size_t, memmgr::Tier>> EpochPlan() override;

    /** Posterior mean hotness of a batch. */
    double
    HotnessMean(std::size_t batch) const
    {
        const BatchState& b = batches_[batch];
        return b.alpha / (b.alpha + b.beta);
    }

    const BatchState& Batch(std::size_t i) const { return batches_[i]; }
    std::size_t NumBatches() const override { return batches_.size(); }
    const SolConfig& Config() const { return config_; }

    sim::DurationNs EpochNs() const override { return config_.epoch_ns; }
    sim::DurationNs
    MinScanPeriodNs() const override
    {
        return config_.scan_periods.front();
    }
    sim::DurationNs
    ScanComputePerBatchNs() const override
    {
        return config_.scan_compute_per_batch_ns;
    }
    sim::DurationNs
    MergeComputePerBatchNs() const override
    {
        return config_.merge_compute_per_batch_ns;
    }

  private:
    SolConfig config_;
    std::vector<BatchState> batches_;
    sim::Rng rng_;
};

}  // namespace wave::sol
