/**
 * @file
 * wave_analyze: repo-specific static checks that neither the compiler
 * nor the build graph can express, in the spirit of Linux's `sparse`
 * address-space checker. The rule catalog, its rationale and what each
 * rule has caught live in docs/static-analysis.md; the implementation
 * is split across tools/analyze/:
 *
 *   source.{h,cc}      comment/string-aware line model + annotations
 *   coroutines.{h,cc}  Task-head parsing and lifetime contracts
 *   rules.h            the catalog and the Finding record
 *   file_rules.{h,cc}  the rules, run one file at a time
 *   report.{h,cc}      allow() suppression + text/SARIF emitters
 *
 * main() owns the dead-allow leg of W304, which needs the
 * suppression results.
 *
 * Usage:
 *   wave_analyze [--root DIR] [--format=text|sarif] [FILE...]
 *   wave_analyze --list-rules
 *
 * With no FILE arguments, analyzes every .h/.cc under DIR/src. FILE
 * arguments (the fixture snippets in tests) are analyzed as model code
 * wherever they live; their includes still resolve against DIR/src.
 * --format=sarif emits SARIF 2.1.0 (reported findings only) for
 * code-scanning upload.
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/coroutines.h"
#include "analyze/file_rules.h"
#include "analyze/report.h"
#include "analyze/rules.h"
#include "analyze/source.h"

namespace fs = std::filesystem;

using namespace wa;

int
main(int argc, char** argv)
{
    fs::path root = ".";
    bool sarif = false;
    std::map<std::string, fs::path> jobs;  // report path -> file

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            ListRules();
            return 0;
        }
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--format=sarif") {
            sarif = true;
        } else if (arg == "--format=text") {
            sarif = false;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "wave_analyze: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            jobs.emplace(fs::path(arg).generic_string(), arg);
        }
    }

    std::error_code ec;
    if (jobs.empty()) {
        if (!fs::exists(root / "src", ec)) {
            std::fprintf(stderr, "wave_analyze: no src/ under %s\n",
                         root.string().c_str());
            return 2;
        }
        for (auto it = fs::recursive_directory_iterator(root / "src");
             it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file()) continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".h" && ext != ".cc") continue;
            jobs.emplace(fs::relative(it->path(), root).generic_string(),
                         it->path());
        }
    }

    FileRules rules(root);
    std::map<std::string, SourceFile> loaded;
    for (const auto& [report, full] : jobs) {
        auto f = LoadFile(full, report);
        if (!f) {
            std::fprintf(stderr, "wave_analyze: cannot read %s\n",
                         full.string().c_str());
            return 2;
        }
        f->coroutines = ParseCoroutines(*f);
        MergeContracts(*f, rules.registry);
        loaded.emplace(report, std::move(*f));
    }
    // Second pass: contracts from every file (headers annotating the
    // public API, definitions elsewhere) are visible to every check.
    for (const auto& [report, f] : loaded) rules.Analyze(f);

    std::vector<Finding> findings = std::move(rules.findings);
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                         if (a.path != b.path) return a.path < b.path;
                         if (a.line != b.line) return a.line < b.line;
                         return a.rule < b.rule;
                     });

    // Suppression pass. Which allow() sites actually suppressed
    // something feeds the W304 dead-allow leg below.
    std::vector<Finding> reported;
    int suppressed = 0;
    std::set<std::pair<std::string, int>> used_allows;
    for (Finding& finding : findings) {
        int allow_line = 0;
        if (InlineSuppressed(loaded.at(finding.path), finding,
                             &allow_line)) {
            ++suppressed;
            used_allows.insert({finding.path, allow_line});
        } else {
            reported.push_back(std::move(finding));
        }
    }

    // W304, dead-allow leg: an inline allow() that suppressed nothing
    // this run names a violation that no longer exists. An allow()
    // cannot suppress this finding about itself.
    for (const auto& [path, f] : loaded) {
        for (const AllowSite& site : f.allows) {
            if (used_allows.count({path, site.line})) continue;
            std::string ids;
            for (const std::string& r : site.rules) {
                if (!ids.empty()) ids += " ";
                ids += r;
            }
            reported.push_back(
                {path, site.line, "W304",
                 "dead annotation: allow(" + ids +
                     ") suppressed nothing in this run — the "
                     "violation it justified no longer exists; "
                     "delete it (dead suppressions rot)"});
        }
    }

    if (sarif) {
        EmitSarif(reported);
    } else {
        EmitText(reported, loaded.size(), suppressed);
    }
    return reported.empty() ? 0 : 1;
}
