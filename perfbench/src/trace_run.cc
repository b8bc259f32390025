/**
 * @file
 * --trace 1: alternates untraced and traced passes over a workload's
 * points, checks that the traced rebuild reproduces every untraced
 * fingerprint, and turns the counts and rungs into per-layer metrics.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "host.h"
#include "json.h"
#include "rungs.h"
#include "traced.h"

namespace perfbench {

namespace {

std::vector<PointResult>
TracedPoints(Kind kind, std::uint64_t seed, Counters& c)
{
    switch (kind) {
      case Kind::kSweep:
        return RunLadder([&](double rps) {
            auto cfg = SweepConfig(seed);
            cfg.offered_rps = rps;
            return TracedSchedPoint(cfg, c);
        });
      case Kind::kOnHostPoint:
        return {TracedSchedPoint(OnHostConfig(seed), c)};
      case Kind::kRpcPoint:
      default:
        return {TracedRpcPoint(RpcConfig(seed), c)};
    }
}

double
Ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Accumulates {"name": {"value": v, "unit": u}} entries. */
class Metrics {
  public:
    void
    Add(const std::string& name, double value, const char* unit)
    {
        json_.Raw(name,
                  JsonObject().Num("value", value).Str("unit", unit).Str());
    }

    std::string Str() const { return json_.Str(); }

  private:
    JsonObject json_;
};

}  // namespace

int
RunTraced(Kind kind, std::uint64_t seed, double seconds)
{
    const double t_start = NowS();
    const std::vector<Rung> rungs = MeasureRungs();
    const auto rung_ns = [&](const std::string& name) {
        for (const Rung& r : rungs) {
            if (r.name == name) return r.ns;
        }
        std::fprintf(stderr, "no rung %s\n", name.c_str());
        std::abort();
    };

    // Each pass runs every point untraced (the harness) and then traced
    // (the rebuild). Counts repeat exactly across passes, so the first
    // pass's are kept; host times keep the fastest pass.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<PointResult> traced;
    Counters counts;
    double untraced_s = kInf;
    double traced_s = kInf;
    double sched_host_ns = kInf;
    std::uint64_t attempted = 0;
    std::uint64_t mismatches = 0;
    double last = 0;
    for (int pass = 0; pass == 0 || NowS() - t_start + last <= seconds;
         ++pass) {
        const double pass_start = NowS();
        std::vector<PointResult> u;
        std::vector<PointResult> t;
        Counters c;
        untraced_s = std::min(
            untraced_s, TimeS([&] { u = HarnessPoints(kind, seed, Untimed); }));
        traced_s =
            std::min(traced_s, TimeS([&] { t = TracedPoints(kind, seed, c); }));
        sched_host_ns = std::min(sched_host_ns, c.sched_host_ns);
        attempted += t.size();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (i >= u.size() || t[i].fingerprint != u[i].fingerprint ||
                t[i].completed != u[i].completed) {
                ++mismatches;
            }
        }
        mismatches += u.size() > t.size() ? u.size() - t.size() : 0;
        if (pass == 0) {
            traced = t;
            counts = c;
        }
        last = NowS() - pass_start;
    }

    const Counters& c = counts;
    const double wall_ns = traced_s * 1e9;
    const auto share = [&](double host_ns) { return Ratio(host_ns, wall_ns); };
    const double sim_share = share(c.events * rung_ns("sim.event_ns"));
    const double pcie_share =
        share(c.wc_flushes * rung_ns("pcie.mmio_write_ns") +
              (c.roundtrip_reads + c.cache_hits) * rung_ns("pcie.mmio_read_ns"));
    const double channel_share =
        share(c.channel_sends * rung_ns("channel.roundtrip_ns"));
    const double wave_share = share(c.txns * rung_ns("wave.txn_ns"));
    const double check_share =
        share(c.coherence_hooks * rung_ns("check.coherence_ns") +
              c.hb_hooks * rung_ns("check.hb_ns") +
              c.protocol_hooks * rung_ns("check.protocol_ns"));
    const double stats_share =
        share(c.stats_records * rung_ns("stats.record_ns"));
    const double sched_share = share(sched_host_ns);

    Metrics m;
    m.Add("wall_s", untraced_s, "s");
    m.Add("sim.events", c.events, "count");
    m.Add("sim.host_ns_per_event", Ratio(untraced_s * 1e9, c.events), "ns");
    m.Add("sim.est_share", sim_share, "ratio");
    m.Add("pcie.roundtrip_reads", c.roundtrip_reads, "count");
    m.Add("pcie.wt_hit_ratio",
          Ratio(c.cache_hits, c.cache_hits + c.roundtrip_reads), "ratio");
    m.Add("pcie.posted_writes", c.posted_writes, "count");
    m.Add("pcie.wc_flushes", c.wc_flushes, "count");
    m.Add("pcie.msix_sends", c.msix_sends, "count");
    m.Add("pcie.dma_transfers", c.dma_transfers, "count");
    m.Add("pcie.est_share", pcie_share, "ratio");
    m.Add("channel.sends", c.channel_sends, "count");
    m.Add("channel.polls", c.channel_polls, "count");
    m.Add("channel.est_share", channel_share, "ratio");
    m.Add("wave.txns", c.txns, "count");
    m.Add("wave.commit_fail_ratio",
          Ratio(c.commits_failed, c.commits_ok + c.commits_failed), "ratio");
    m.Add("wave.est_share", wave_share, "ratio");
    m.Add("ghost.messages", c.messages, "count");
    m.Add("ghost.agent_iterations", c.agent_iterations, "count");
    m.Add("ghost.kicks", c.kicks, "count");
    m.Add("ghost.prestage_hit_ratio",
          Ratio(c.prestage_hits, c.prestage_hits + c.idle_waits), "ratio");
    m.Add("ghost.ctx_switch_p50_ns", c.ctx_switch.Percentile(0.50), "sim_ns");
    m.Add("sched.decisions", c.decisions, "count");
    m.Add("sched.preemptions", c.preemptions, "count");
    m.Add("sched.host_ns", sched_host_ns, "ns");
    m.Add("sched.ns_per_call", Ratio(sched_host_ns, c.sched_calls), "ns");
    m.Add("sched.share", sched_share, "ratio");
    m.Add("check.hooks", c.coherence_hooks + c.hb_hooks + c.protocol_hooks,
          "count");
    m.Add("check.est_share", check_share, "ratio");
    m.Add("stats.records", c.stats_records, "count");
    m.Add("stats.est_share", stats_share, "ratio");
    m.Add("workload.requests", c.requests, "count");
    m.Add("workload.points", c.points, "count");
    m.Add("rpc.steered", c.steered, "count");
    for (const Rung& r : rungs) {
        m.Add(r.name, r.ns, "ns");
        if (r.name != "ref_ns") {
            // "sim.event_ns" -> "sim.event_vs_ref"
            m.Add(r.name.substr(0, r.name.size() - 3) + "_vs_ref",
                  r.ns / rungs.front().ns, "x");
        }
    }
    m.Add("unattributed_share",
          1.0 - (sim_share + pcie_share + channel_share + wave_share +
                 check_share + stats_share + sched_share),
          "ratio");
    m.Add("tracing_overhead", Ratio(traced_s, untraced_s), "x");

    std::printf("%s\n", JsonObject()
                            .Str("mode", "trace")
                            .Raw("config", ConfigJson(kind, seed))
                            .Raw("points", PointsJson(traced))
                            .Int("attempted", attempted)
                            .Int("mismatches", mismatches)
                            .Int("violations", c.violations)
                            .Raw("metrics", m.Str())
                            .Str()
                            .c_str());
    return 0;
}

}  // namespace perfbench
