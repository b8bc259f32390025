// wave-domain: harness
#include "fuzz/runner.h"

#include <sstream>
#include <vector>

#include "check/coherence.h"
#include "check/hb.h"
#include "check/hooks.h"
#include "check/protocol.h"
#include "pcie/config.h"
#include "sim/random.h"
#include "workload/testbed.h"

namespace wave::fuzz {

namespace {

/** The scenario's policy: 0 fifo, 1 shinjuku, 2 and up mq-shinjuku. */
workload::PolicyKind
PolicyOf(const Scenario& s)
{
    switch (s.policy) {
      case 0: return workload::PolicyKind::kFifo;
      case 1: return workload::PolicyKind::kShinjuku;
      default: return workload::PolicyKind::kMultiQueueShinjuku;
    }
}

pcie::PcieConfig
MakePcie(const Scenario& s)
{
    pcie::PcieConfig cfg = s.upi_fabric != 0u ? pcie::PcieConfig::Upi()
                                              : pcie::PcieConfig{};
    if (s.mmio_read_ns != 0u) {
        cfg.mmio_read_ns = static_cast<sim::DurationNs>(s.mmio_read_ns);
    }
    if (s.posted_visibility_ns != 0u) {
        cfg.posted_visibility_ns =
            static_cast<sim::DurationNs>(s.posted_visibility_ns);
    }
    if (s.msix_end_to_end_ns != 0u) {
        cfg.msix_end_to_end_ns =
            static_cast<sim::DurationNs>(s.msix_end_to_end_ns);
    }
    if (s.dma_setup_ns != 0u) {
        cfg.dma_setup_ns = static_cast<sim::DurationNs>(s.dma_setup_ns);
    }
    return cfg;
}

/** Appends up to @p cap diagnostics from @p items under @p oracle. */
template <typename Vec, typename DescribeFn>
void
Collect(RunResult& result, const char* oracle, const Vec& items,
        DescribeFn describe, std::size_t cap = 8)
{
    for (std::size_t i = 0; i < items.size() && i < cap; ++i) {
        result.failures.push_back({oracle, describe(items[i])});
    }
    if (items.size() > cap) {
        result.failures.push_back(
            {oracle, "(+" + std::to_string(items.size() - cap) +
                         " more suppressed)"});
    }
}

}  // namespace

std::string
RunResult::Describe() const
{
    std::ostringstream out;
    for (const OracleFailure& f : failures) {
        out << '[' << f.oracle << "] " << f.detail << '\n';
    }
    return out.str();
}

RunResult
RunScenario(const Scenario& s)
{
    workload::TestbedConfig tc;
    tc.worker_cores = static_cast<int>(s.worker_cores);
    tc.nic_speed = static_cast<double>(s.nic_speed_permille) / 1000.0;
    tc.pcie = MakePcie(s);
    tc.opt.nic_wb_ptes = (s.opt_bits & 1u) != 0u;
    tc.opt.host_wc_wt_ptes = (s.opt_bits & 2u) != 0u;
    tc.opt.prestage_prefetch = (s.opt_bits & 4u) != 0u;
    tc.kernel.prefetch_decisions = tc.opt.prestage_prefetch;
    tc.kernel.poll_idle = s.poll_mode != 0u;
    tc.faults = s.faults;
    workload::Testbed bed(tc);
    WaveRuntime& runtime = bed.Runtime();
    // The protocol oracle also checks the kernel's side of the
    // contract: task state machines and commits against them.
    WAVE_CHECK_HOOK(bed.Kernel().AttachProtocol(runtime.Protocol()));

    ghost::AgentConfig agent_cfg;
    agent_cfg.prestage = s.prestage != 0u;
    agent_cfg.prestage_min_depth = s.prestage_min_depth;
    bed.StartAgent(
        workload::MakeSchedPolicy(
            PolicyOf(s), static_cast<sim::DurationNs>(s.slice_us * 1000)),
        agent_cfg);

    bed.Supervise(static_cast<sim::DurationNs>(s.watchdog_timeout_ns),
                  static_cast<sim::DurationNs>(s.watchdog_check_ns));

    workload::KvService& service =
        bed.AddService(static_cast<int>(s.num_workers));
    const auto arrivals_end =
        static_cast<sim::TimeNs>(s.warmup_ns + s.measure_ns);
    service.SetMeasureWindow(static_cast<sim::TimeNs>(s.warmup_ns),
                             arrivals_end);

    bed.Start();

    workload::LoadGenConfig lg;
    lg.rate_rps = static_cast<double>(s.offered_rps);
    lg.get_fraction = static_cast<double>(s.get_permille) / 1000.0;
    lg.get_service_ns = static_cast<sim::DurationNs>(s.get_service_ns);
    lg.range_service_ns = static_cast<sim::DurationNs>(s.range_service_ns);
    lg.end_time = arrivals_end;
    // The arrival process draws from its own named stream so the same
    // workload replays regardless of what the fault stream consumed.
    lg.seed = sim::StreamSeed(s.seed, "workload");
    bed.SpawnLoad(lg);

    bed.ArmFaults();

    bed.Sim().RunUntil(static_cast<sim::TimeNs>(
        s.warmup_ns + s.measure_ns + s.drain_ns));

    const ghost::AgentSupervisor& supervisor = *bed.Supervisor();
    RunResult result;
    result.event_hash = bed.Sim().EventHash();
    result.completed = service.Completed();
    result.pending_at_end = service.PendingDepth();
    result.commits_failed = bed.Kernel().Stats().commits_failed;
    result.agent_decisions = bed.Agent().Stats().decisions;
    if (bed.Injector() != nullptr) result.inject = bed.Injector()->Stats();
    result.watchdog_expiries = supervisor.Stats().expiries;
    result.fallback_active = supervisor.Stats().fallback_active;
    result.fallback_at = supervisor.Stats().fallback_at.ns();

    if (runtime.Checker() != nullptr) {
        Collect(result, "coherence", runtime.Checker()->Violations(),
                [](const auto& v) { return v.Describe(); });
    }
    if (runtime.Protocol() != nullptr) {
        result.commits_checked = runtime.Protocol()->Stats().commits_checked;
        result.task_transitions =
            runtime.Protocol()->Stats().task_transitions;
        Collect(result, "protocol", runtime.Protocol()->Violations(),
                [](const auto& v) { return v.Describe(); });
    }
    if (runtime.Hb() != nullptr) {
        Collect(result, "hb-race", runtime.Hb()->Races(),
                [](const auto& r) { return r.Describe(); });
    }
    if (s.require_progress != 0u) {
        if (result.completed == 0) {
            result.failures.push_back(
                {"liveness", "no request ever completed"});
        }
        if (result.pending_at_end != 0) {
            result.failures.push_back(
                {"liveness",
                 std::to_string(result.pending_at_end) +
                     " requests still pending after the drain window" +
                     (result.fallback_active ? " (fallback was active)"
                                             : "")});
        }
    }
    return result;
}

RunResult
RunScenarioTwice(const Scenario& s)
{
    RunResult first = RunScenario(s);
    const RunResult second = RunScenario(s);
    if (first.event_hash != second.event_hash) {
        std::ostringstream detail;
        detail << "event fingerprint diverged across identical runs: "
               << std::hex << first.event_hash << " vs "
               << second.event_hash;
        first.failures.push_back({"determinism", detail.str()});
    }
    return first;
}

}  // namespace wave::fuzz
