/**
 * @file
 * EXP-T3: reproduces Table 3 — scheduling microbenchmarks.
 *
 * Row group 1/3: how long an agent takes to open (stage + publish) a
 * decision and kick the host — on the SmartNIC with uncacheable vs
 * write-back local mappings, and on host with an IPI.
 *
 * Row group 2/4: host context-switch overhead (thread stops -> next
 * thread runs) measured in a live FIFO deployment with a deep run
 * queue, at each optimization level. Five seeds, range of medians,
 * as in the paper.
 */
#include <algorithm>

#include "bench/bench_util.h"
#include "sched/fifo.h"
#include "stats/table.h"
#include "workload/testbed.h"

namespace wave {
namespace {

using sim::Simulator;
using sim::Task;
using sim::DurationNs;
using sim::TimeNs;

/** Agent-side decision-open + kick latency on a given transport. */
DurationNs
MeasureDecisionOpen(bool on_nic, bool nic_wb)
{
    workload::TestbedConfig tc;
    tc.placement =
        on_nic ? workload::Deployment::kWave : workload::Deployment::kOnHost;
    tc.worker_cores = 1;
    tc.opt = api::OptimizationConfig::None();
    tc.opt.nic_wb_ptes = nic_wb;
    workload::Testbed bed(tc);

    DurationNs cost{};
    bed.Sim().Spawn([](Simulator& s, ghost::SchedTransport& t,
                       DurationNs& out) -> Task<> {
        ghost::GhostDecision d{};
        d.type = ghost::DecisionType::kRunThread;
        d.tid = 1;
        d.core = 0;
        const TimeNs t0 = s.Now();
        t.AgentStageDecision(d);
        co_await t.AgentCommit(0, /*kick=*/true);
        out = s.Now() - t0;
    }(bed.Sim(), bed.Transport(), cost));
    bed.Sim().Run();
    return cost;
}

/** Thread body that runs ~10 us then yields, staying runnable. */
class YieldingBody : public ghost::ThreadBody {
  public:
    explicit YieldingBody(sim::DurationNs service) : service_(service) {}

    Task<ghost::RunStop>
    Run(ghost::RunContext& ctx) override
    {
        sim::DurationNs remaining = service_;
        while (remaining > 0) {
            const auto ran =
                co_await ctx.interrupt.SleepInterruptible(remaining);
            remaining -= std::min(ran, remaining);
            if (remaining > 0) co_return ghost::RunStop::kPreempted;
        }
        co_return ghost::RunStop::kYielded;
    }

  private:
    sim::DurationNs service_;
};

/**
 * Context-switch overhead with an always-deep run queue (the Table 3
 * microbench condition: prestaging is always possible and the agent is
 * far from saturation). Two worker cores, 64 yielding threads; range
 * of medians over 5 runs with staggered service times.
 */
std::pair<DurationNs, DurationNs>
MeasureCtxSwitch(workload::Deployment deployment,
                 api::OptimizationConfig opt, bool prestage)
{
    DurationNs lo = ~0ull;
    DurationNs hi{};
    for (int run = 0; run < 5; ++run) {
        workload::TestbedConfig tc;
        tc.placement = deployment;
        tc.worker_cores = 2;
        tc.opt = opt;
        tc.kernel.prefetch_decisions =
            deployment == workload::Deployment::kOnHost ||
            opt.prestage_prefetch;
        workload::Testbed bed(tc);

        ghost::AgentConfig agent_cfg;
        agent_cfg.prestage = prestage;
        agent_cfg.prestage_min_depth = 1;
        bed.StartAgent(std::make_shared<sched::FifoPolicy>(), agent_cfg);

        for (ghost::Tid tid = 1; tid <= 64; ++tid) {
            // Staggered service times give run-to-run spread.
            const sim::DurationNs service =
                9'000 + 100 * ((tid + run * 7) % 20);
            bed.Kernel().AddThread(tid,
                                   std::make_shared<YieldingBody>(service));
        }
        bed.Start();
        bed.Sim().RunFor(50'000'000);

        const DurationNs median =
            bed.Kernel().Stats().ctx_switch_overhead.Percentile(0.50);
        lo = std::min(lo, median);
        hi = std::max(hi, median);
    }
    return {lo, hi};
}

std::string
FmtRange(std::pair<DurationNs, DurationNs> range)
{
    return stats::Table::Fmt("%.0f-%.0f ns",
                             range.first.ToDouble(),
                             range.second.ToDouble());
}

}  // namespace
}  // namespace wave

int
main()
{
    using namespace wave;
    using workload::Deployment;
    bench::Banner("EXP-T3", "Table 3: scheduling microbenchmarks");

    stats::Table table({"row", "measured", "paper"});

    table.AddRow({"-- Offloaded Kernel Thread Scheduler with Wave --", "",
                  ""});
    table.AddRow(
        {"1. Open Decision + MSI-X, baseline",
         bench::FmtNs(MeasureDecisionOpen(true, false).ToDouble()),
         "1,013 ns"});
    table.AddRow(
        {"   with WB PTEs on SmartNIC",
         bench::FmtNs(MeasureDecisionOpen(true, true).ToDouble()),
         "426 ns"});

    api::OptimizationConfig baseline = api::OptimizationConfig::None();
    api::OptimizationConfig nic_wb = baseline;
    nic_wb.nic_wb_ptes = true;
    api::OptimizationConfig wc_wt = nic_wb;
    wc_wt.host_wc_wt_ptes = true;
    api::OptimizationConfig full = api::OptimizationConfig::Full();

    table.AddRow({"2. Context Switch Overhead on Host", "", ""});
    table.AddRow({"   Baseline",
                  FmtRange(MeasureCtxSwitch(Deployment::kWave, baseline,
                                            false)),
                  "13,310-13,530 ns"});
    table.AddRow({"   with WB PTEs on SmartNIC",
                  FmtRange(MeasureCtxSwitch(Deployment::kWave, nic_wb,
                                            false)),
                  "9,940-10,160 ns"});
    table.AddRow({"   and with WC/WT PTEs on Host",
                  FmtRange(MeasureCtxSwitch(Deployment::kWave, wc_wt,
                                            false)),
                  "6,100-6,910 ns"});
    table.AddRow({"   and with Pre-Staging & Prefetching",
                  FmtRange(MeasureCtxSwitch(Deployment::kWave, full, true)),
                  "3,320-4,040 ns"});

    table.AddRow({"-- On-Host ghOSt Scheduler --", "", ""});
    table.AddRow(
        {"3. Open Decision + Interrupt",
         bench::FmtNs(MeasureDecisionOpen(false, false).ToDouble()),
         "770 ns"});
    table.AddRow({"4. Context Switch Overhead on Host", "", ""});
    table.AddRow({"   Baseline",
                  FmtRange(MeasureCtxSwitch(Deployment::kOnHost, full,
                                            false)),
                  "4,380-4,990 ns"});
    table.AddRow({"   with Pre-Staging",
                  FmtRange(MeasureCtxSwitch(Deployment::kOnHost, full,
                                            true)),
                  "2,350-3,260 ns"});
    table.Print();
    return 0;
}
