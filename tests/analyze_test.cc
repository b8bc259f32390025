/**
 * @file
 * End-to-end tests for wave_analyze (tools/analyze/).
 *
 * Two halves:
 *  - planted-violation fixtures under tests/analyze_fixtures/, one per
 *    rule, each asserted to trip the rule it plants (plus suppression,
 *    region-scoping, SARIF and clean-file fixtures);
 *  - a clean-tree run over the real src/, asserted to report zero
 *    findings — the same invocation the `analyze` build target and CI
 *    run.
 *
 * The analyzer binary location and the repo root are injected by CMake
 * as WAVE_ANALYZE_BIN / WAVE_SOURCE_ROOT compile definitions.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef WAVE_ANALYZE_BIN
#error "WAVE_ANALYZE_BIN must be defined by the build"
#endif
#ifndef WAVE_SOURCE_ROOT
#error "WAVE_SOURCE_ROOT must be defined by the build"
#endif

namespace {

struct RunResult {
    int exit_code = -1;
    std::string output;
};

/** Run a shell command, capturing interleaved stdout+stderr. */
RunResult
Exec(const std::string& cmd)
{
    RunResult r;
    const std::string full = cmd + " 2>&1";
    FILE* pipe = popen(full.c_str(), "r");
    if (pipe == nullptr) return r;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
        r.output.append(buf.data(), n);
    }
    const int status = pclose(pipe);
    if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
    return r;
}

const std::string kBin = WAVE_ANALYZE_BIN;
const std::string kRoot = WAVE_SOURCE_ROOT;
const std::string kFixtures = kRoot + "/tests/analyze_fixtures";

/** Analyze fixture files as model code against the real tree. */
RunResult
AnalyzeFixture(const std::string& name, const std::string& more = "")
{
    std::string cmd = kBin + " --root " + kRoot + " " + kFixtures + "/" +
                      name;
    if (!more.empty()) cmd += " " + kFixtures + "/" + more;
    return Exec(cmd);
}

/** Planted fixture must trip its rule and exit with findings (1). */
void
ExpectDetected(const std::string& fixture, const std::string& rule)
{
    const RunResult r = AnalyzeFixture(fixture);
    EXPECT_EQ(r.exit_code, 1) << fixture << ":\n" << r.output;
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << fixture << " did not trip " << rule << ":\n"
        << r.output;
}

TEST(AnalyzeFixtures, W001MissingDomain)
{
    ExpectDetected("w001_missing_domain.cc", "W001");
}

TEST(AnalyzeFixtures, W002CrossDomainInclude)
{
    ExpectDetected("w002_cross_include.cc", "W002");
}

TEST(AnalyzeFixtures, W003CrossDomainSymbol)
{
    ExpectDetected("w003_cross_symbol.cc", "W003");
}

TEST(AnalyzeFixtures, W006StaleWithoutReason)
{
    ExpectDetected("w006_stale_reason.cc", "W006");
}

TEST(AnalyzeFixtures, W007WallClockRng)
{
    ExpectDetected("w007_wall_clock.cc", "W007");
}

TEST(AnalyzeFixtures, W008TimeNarrowing)
{
    ExpectDetected("w008_time_narrowing.cc", "W008");
}

TEST(AnalyzeFixtures, W101HotAllocation)
{
    ExpectDetected("w101_hot_alloc.cc", "W101");
}

TEST(AnalyzeFixtures, W102HotThrow)
{
    ExpectDetected("w102_hot_throw.cc", "W102");
}

TEST(AnalyzeFixtures, W103HotLock)
{
    ExpectDetected("w103_hot_lock.cc", "W103");
}

TEST(AnalyzeFixtures, W104HotHeavyByValue)
{
    ExpectDetected("w104_hot_by_value.cc", "W104");
}

TEST(AnalyzeFixtures, W105HotIo)
{
    ExpectDetected("w105_hot_io.cc", "W105");
}

TEST(AnalyzeFixtures, W106UnbatchedChannelOpInHotLoop)
{
    ExpectDetected("w106_hot_unbatched.cc", "W106");
}

/** Occurrences of @p needle in @p haystack (for finding counts). */
std::size_t
Count(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

/** Planted fixture must trip its rule exactly once, nothing else. */
void
ExpectDetectedOnce(const std::string& fixture, const std::string& rule)
{
    const RunResult r = AnalyzeFixture(fixture);
    EXPECT_EQ(r.exit_code, 1) << fixture << ":\n" << r.output;
    EXPECT_EQ(Count(r.output, rule + ":"), 1u)
        << fixture << " did not trip " << rule << " exactly once:\n"
        << r.output;
    EXPECT_NE(r.output.find("1 finding"), std::string::npos)
        << fixture << " tripped more than its planted rule:\n"
        << r.output;
}

TEST(AnalyzeFixtures, W005UngatedCheckerCall)
{
    // A bare checker entry point and a bare ring-end report
    // (check/stream_end.h): one finding each.
    const RunResult r = AnalyzeFixture("w005_hook_gate.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(Count(r.output, "W005:"), 2u) << r.output;
    EXPECT_NE(r.output.find("w005_hook_gate.cc:24: W005"), std::string::npos)
        << "the StreamEnd call was not flagged:\n"
        << r.output;
    EXPECT_NE(r.output.find("2 findings"), std::string::npos) << r.output;
}

TEST(AnalyzeFixtures, W201DanglingRefAcrossSuspension)
{
    ExpectDetectedOnce("w201_dangling_ref.cc", "W201");
}

TEST(AnalyzeFixtures, W201OutOfLineClassTemplateMember)
{
    // Regression: a head qualified by a class template,
    // Drainer<Queue, Sink>::DrainInto, was not parsed as a coroutine.
    ExpectDetectedOnce("w201_template_member.cc", "W201");
}

TEST(AnalyzeFixtures, W202CapturingLambdaCoroutine)
{
    ExpectDetectedOnce("w202_lambda_coroutine.cc", "W202");
}

TEST(AnalyzeFixtures, W203SpawnBindsStackReference)
{
    ExpectDetectedOnce("w203_spawn_stack_ref.cc", "W203");
}

TEST(AnalyzeFixtures, W205PointerKeyedUnorderedIteration)
{
    ExpectDetectedOnce("w205_unordered_ptr_iter.cc", "W205");
}

TEST(AnalyzeFixtures, W206AwaitUnderScopedGuard)
{
    ExpectDetectedOnce("w206_await_under_guard.cc", "W206");
}

TEST(AnalyzeFixtures, W101SizedBufferWithMixedCaseName)
{
    // Regression: the sized-buffer pattern only matched snake_case
    // identifiers, so CamelCase locals escaped the rule.
    ExpectDetectedOnce("w101_mixed_case.cc", "W101");
}

TEST(AnalyzeFixtures, W303MutableGlobalWithoutJustification)
{
    // One mutable global, and one mutable local static among the
    // shapes the census must leave alone (const globals, static const
    // locals, static data members, extern and forward declarations, a
    // defaulted parameter on a continuation line).
    const RunResult r =
        AnalyzeFixture("w303_mutable_global.cc", "w303_local_static.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(Count(r.output, "W303:"), 2u) << r.output;
    EXPECT_EQ(Count(r.output, "variable `g_events_seen`"), 1u) << r.output;
    EXPECT_EQ(Count(r.output, "static `last`"), 1u) << r.output;
    EXPECT_NE(r.output.find("2 findings"), std::string::npos)
        << "the census flagged a shape it must leave alone:\n"
        << r.output;
}

TEST(AnalyzeFixtures, W304DeadLifetimeAnnotation)
{
    // Exactly once: the contract on the live Task head stays silent.
    ExpectDetectedOnce("w304_dead_annotation.cc", "W304");
}

TEST(AnalyzeFixtures, RegionScopedHotOnlyFlagsInsideRegion)
{
    // Three identical allocations; only the one between `wave-hot:
    // begin` and `wave-hot: end` may be reported.
    const RunResult r = AnalyzeFixture("hot_region.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(Count(r.output, "W101"), 1u) << r.output;
}

TEST(AnalyzeFixtures, JustifiedAllowSilencesHotRule)
{
    const RunResult r = AnalyzeFixture("hot_allow.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, InlineSuppressionSilencesFinding)
{
    const RunResult r = AnalyzeFixture("suppressed.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, AllowOnLineAboveSuppresses)
{
    const RunResult r = AnalyzeFixture("allow_line_above.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, OneAllowCommentMaySuppressMultipleRules)
{
    // One allow(W101 W105 ...) comment covers both findings on the
    // line below it.
    const RunResult r = AnalyzeFixture("allow_multi_rule.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("2 suppressed"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, AllowInsideStringLiteralDoesNotSuppress)
{
    // The incantation quoted in a string literal is data, not a
    // suppression comment.
    const RunResult r = AnalyzeFixture("allow_in_string.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("W007"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("(0 suppressed)"), std::string::npos)
        << "nothing should have been inline-suppressed:\n"
        << r.output;
}

TEST(AnalyzeFixtures, SarifFormatEmitsReportedFindings)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --format=sarif " +
            kFixtures + "/w201_dangling_ref.cc");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("\"version\": \"2.1.0\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"ruleId\": \"W201\""), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"startLine\""), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, SarifSuppressedFindingsAreOmitted)
{
    const RunResult r =
        Exec(kBin + " --root " + kRoot + " --format=sarif " +
            kFixtures + "/suppressed.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(r.output.find("\"ruleId\": \"W"), std::string::npos)
        << r.output;
}

TEST(AnalyzeFixtures, CleanFixtureHasNoFindings)
{
    const RunResult r = AnalyzeFixture("clean.cc");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("wave_analyze: OK"), std::string::npos)
        << r.output;
}

TEST(AnalyzeTree, CleanTreeHasZeroViolations)
{
    const RunResult r = Exec(kBin + " --root " + kRoot);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("wave_analyze: OK"), std::string::npos)
        << r.output;
}

TEST(AnalyzeTree, ListRulesCoversFullCatalog)
{
    const RunResult r = Exec(kBin + " --list-rules");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    for (const char* rule : {"W001", "W002", "W003", "W005", "W006",
                             "W007", "W008", "W101", "W102", "W103",
                             "W104", "W105", "W106", "W201", "W202",
                             "W203", "W205", "W206", "W303", "W304"}) {
        EXPECT_EQ(Count(r.output, std::string("  ") + rule + " "), 1u)
            << "missing " << rule << ":\n"
            << r.output;
    }
    EXPECT_EQ(Count(r.output, "\n  W"), 20u) << r.output;
}

}  // namespace
