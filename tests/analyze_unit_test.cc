/**
 * @file
 * Unit tests for wave_analyze's per-file scans (tools/analyze/): the
 * W303 mutable-global census and the dead-lifetime scan behind W304.
 * These compile the rule modules in directly and parse sources from
 * memory — no subprocess, no fixtures on disk.
 *
 * The SymbolGraph suite name dates from when the census ran over the
 * cross-TU symbol graph; the test pins the same const/mutable split on
 * the per-file scan that replaced it.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/coroutines.h"
#include "analyze/file_rules.h"
#include "analyze/source.h"

namespace {

using wa::ParseSource;
using wa::SourceFile;

TEST(SymbolGraph, MutableAndConstGlobalsAreClassified)
{
    const SourceFile f = ParseSource("globals.cc",
                                     "// wave-domain: neutral\n"
                                     "namespace wave::x {\n"
                                     "constexpr int kLimit = 8;\n"
                                     "int g_hits = 0;\n"
                                     "}  // namespace wave::x\n");
    wa::FileRules rules(".");
    rules.Analyze(f);
    std::vector<wa::Finding> w303;
    for (const wa::Finding& finding : rules.findings) {
        if (finding.rule == "W303") w303.push_back(finding);
    }
    ASSERT_EQ(w303.size(), 1u);
    EXPECT_EQ(w303[0].line, 4);
    EXPECT_NE(w303[0].message.find("`g_hits`"), std::string::npos)
        << w303[0].message;
}

TEST(DeadLifetime, AnnotationWithNoTaskHeadIsDead)
{
    const SourceFile f = ParseSource(
        "dead.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "// wave-lifetime(caller-awaits)\n"
        "int\n"
        "PlainFunction(int v)\n"
        "{\n"
        "    return v;\n"
        "}\n"
        "}  // namespace wave::x\n");
    const auto dead = wa::DeadLifetimeLines(f);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], 3);
}

TEST(DeadLifetime, AnnotationOnATaskHeadIsAlive)
{
    SourceFile f = ParseSource(
        "alive.cc",
        "// wave-domain: neutral\n"
        "namespace wave::x {\n"
        "// wave-lifetime(caller-awaits)\n"
        "Task<int>\n"
        "Pump(Queue& q)\n"
        "{\n"
        "    co_return co_await q.Receive();\n"
        "}\n"
        "}  // namespace wave::x\n");
    f.coroutines = wa::ParseCoroutines(f);
    EXPECT_TRUE(wa::DeadLifetimeLines(f).empty());
}

}  // namespace
