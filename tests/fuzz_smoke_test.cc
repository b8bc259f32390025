/**
 * @file
 * Per-PR smoke slice of the fuzz rig (the nightly swarm runs the wide
 * sweep; this must stay well under 30 s).
 *
 * Covers the full pipeline end to end: scenario generation from named
 * seed streams, artifact round-trip, a benign multi-seed sweep under
 * all checker oracles, two-run determinism, and — the rig validating
 * itself — a planted double-commit bug that must be found, shrunk to a
 * minimal schedule, and reproduced from its replay artifact.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fuzz/runner.h"
#include "fuzz/scenario.h"
#include "fuzz/shrink.h"
#include "sim/inject.h"

namespace wave::fuzz {
namespace {

using sim::inject::FaultKind;

bool
HasOracle(const RunResult& r, const std::string& oracle)
{
    for (const OracleFailure& f : r.failures) {
        if (f.oracle == oracle) return true;
    }
    return false;
}

TEST(FuzzScenario, GenerationIsDeterministicPerSeed)
{
    const Scenario a = GenerateScenario(11);
    const Scenario b = GenerateScenario(11);
    const Scenario c = GenerateScenario(12);
    EXPECT_EQ(ScenarioToString(a), ScenarioToString(b));
    EXPECT_NE(ScenarioToString(a), ScenarioToString(c));
}

TEST(FuzzScenario, FaultStreamIsIndependentOfWorkloadStream)
{
    // Same seed, different fault budget: the deployment and workload
    // must be identical — only the fault schedule may differ. This is
    // the named-RNG-stream split doing its job.
    GenLimits none;
    none.max_faults = 0;
    GenLimits some;
    some.max_faults = 4;
    Scenario a = GenerateScenario(21, none);
    Scenario b = GenerateScenario(21, some);
    b.faults.clear();
    EXPECT_EQ(ScenarioToString(a), ScenarioToString(b));
}

TEST(FuzzScenario, ArtifactRoundTripsExactly)
{
    GenLimits limits;
    limits.max_faults = 4;
    limits.enable_bug_faults = true;
    // Find a seed whose scenario carries faults so the fault lines are
    // exercised too.
    Scenario s;
    for (std::uint64_t seed = 1; seed < 32; ++seed) {
        s = GenerateScenario(seed, limits);
        if (!s.faults.empty()) break;
    }
    ASSERT_FALSE(s.faults.empty());

    const std::string text = ScenarioToString(s);
    Scenario parsed;
    std::string error;
    ASSERT_TRUE(ScenarioFromString(text, &parsed, &error)) << error;
    EXPECT_EQ(ScenarioToString(parsed), text);

    EXPECT_FALSE(ScenarioFromString("bogus_key 3\n", &parsed, &error));
    EXPECT_NE(error.find("bogus_key"), std::string::npos);
    EXPECT_FALSE(
        ScenarioFromString("fault no-such-kind at=1\n", &parsed, &error));

    // Values no run can use are rejected, and the error names the key.
    // A negative token would otherwise wrap to 2^64 - 1.
    const std::pair<const char*, const char*> kUnrunnable[] = {
        {"drain_ns -1\n", "drain_ns"},
        {"seed -3\n", "seed"},
        {"worker_cores 0\n", "worker_cores"},
        {"num_workers 0\n", "num_workers"},
        {"offered_rps 0\n", "offered_rps"},
        {"watchdog_check_ns 0\n", "watchdog_check_ns"},
        {"fault agent-stall at=-1 dur=5 param=0\n", "at=-1"},
        {"fault mmio-delay at=5 dur=-1 param=0\n", "dur=-1"},
        {"fault mmio-delay at=5 dur=5 param=-7\n", "param=-7"},
    };
    for (const auto& [input, key] : kUnrunnable) {
        EXPECT_FALSE(ScenarioFromString(input, &parsed, &error)) << input;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
}

TEST(FuzzSmoke, BenignSweepIsCleanAndDeterministic)
{
    // A handful of seeded scenarios (faults included — they are all
    // recoverable kinds) under every oracle, each run twice so the
    // event-fingerprint determinism oracle is armed.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Scenario s = GenerateScenario(seed);
        const RunResult r = RunScenarioTwice(s);
        EXPECT_TRUE(r.Ok()) << "seed " << seed << ":\n" << r.Describe();
        EXPECT_GT(r.completed, 0u) << "seed " << seed;
        // The protocol oracle sees the kernel's side too: its commits
        // and task-state transitions, not only the queues.
        EXPECT_GT(r.commits_checked, 0u) << "seed " << seed;
        EXPECT_GT(r.task_transitions, 0u) << "seed " << seed;
    }
}

TEST(FuzzSmoke, SeededDoubleCommitBugIsFoundShrunkAndReplayable)
{
    // The rig validating itself: with bug faults enabled, fuzzing must
    // find the planted double-commit defect, the protocol oracle must
    // name it, shrinking must reduce the schedule to <= 3 faults, and
    // the emitted artifact must reproduce the failure bit for bit.
    GenLimits limits;
    limits.max_faults = 3;
    limits.enable_bug_faults = true;

    Scenario failing;
    RunResult failing_result;
    bool found = false;
    for (std::uint64_t seed = 100; seed < 120 && !found; ++seed) {
        const Scenario s = GenerateScenario(seed, limits);
        bool has_bug = false;
        for (const auto& f : s.faults) {
            has_bug |= f.kind == FaultKind::kDoubleCommitBug;
        }
        if (!has_bug) continue;
        RunResult r = RunScenario(s);
        if (r.Ok()) continue;
        failing = s;
        failing_result = std::move(r);
        found = true;
    }
    ASSERT_TRUE(found) << "no seed in [100,120) tripped the planted bug";
    EXPECT_TRUE(HasOracle(failing_result, "protocol"))
        << failing_result.Describe();

    ShrinkOptions opts;
    opts.max_runs = 60;
    const ShrinkOutcome shrunk = Shrink(failing, opts);
    ASSERT_TRUE(shrunk.failing);
    EXPECT_LE(shrunk.scenario.faults.size(), 3u);
    EXPECT_TRUE(HasOracle(shrunk.result, "protocol"))
        << shrunk.result.Describe();

    // Replay fidelity: artifact text -> scenario -> identical run.
    Scenario replayed;
    std::string error;
    ASSERT_TRUE(ScenarioFromString(ScenarioToString(shrunk.scenario),
                                   &replayed, &error))
        << error;
    const RunResult replay = RunScenario(replayed);
    EXPECT_FALSE(replay.Ok());
    EXPECT_EQ(replay.event_hash, shrunk.result.event_hash)
        << "replayed artifact diverged from the shrunk failing run";
}

TEST(FuzzSmoke, InjectedWindowsAreActuallyExercised)
{
    // Hand-built schedule over a known-benign deployment: the counters
    // prove the faults landed (a rig whose faults never fire would pass
    // every sweep vacuously).
    GenLimits none;
    none.max_faults = 0;
    Scenario s = GenerateScenario(3, none);
    ASSERT_TRUE(s.faults.empty());
    const sim::TimeNs mid{s.warmup_ns + s.measure_ns / 4};
    s.faults.push_back({FaultKind::kMsixDelay, mid, 2'000'000, 8'000});
    s.faults.push_back(
        {FaultKind::kCommitFailBurst, mid + 500'000, 500'000, 0});
    s.faults.push_back({FaultKind::kAgentStall, mid + 1'000'000,
                        s.watchdog_timeout_ns / 4, 0});

    const RunResult r = RunScenario(s);
    EXPECT_TRUE(r.Ok()) << r.Describe();
    EXPECT_GT(r.inject.commit_fails, 0u);
    EXPECT_GT(r.inject.actions, 0u);
    // The stall was transient (< timeout), so no fallback.
    EXPECT_FALSE(r.fallback_active);
    EXPECT_EQ(r.watchdog_expiries, 0u);
}

}  // namespace
}  // namespace wave::fuzz
