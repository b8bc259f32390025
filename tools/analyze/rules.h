/**
 * @file
 * The wave_analyze rule catalog and the Finding record every rule
 * produces. See docs/static-analysis.md for the full catalog with
 * rationale and what each rule has caught; tools/analyze/file_rules.h
 * holds the rules themselves.
 */
#pragma once

#include <string>

namespace wa {

struct Finding {
    std::string path;  ///< as reported (relative to root when possible)
    int line = 0;
    std::string rule;
    std::string message;
};

struct Rule {
    const char* id;
    const char* name;
    const char* summary;
};

inline constexpr Rule kRules[] = {
    {"W001", "missing-domain",
     "every model source file carries a wave-domain annotation"},
    {"W002", "cross-domain-include",
     "includes respect the host/nic/pcie/neutral matrix"},
    {"W003", "cross-domain-symbol",
     "no naming symbols owned by the opposite domain"},
    {"W005", "hook-coverage",
     "checker calls gated by WAVE_CHECK_HOOK; endpoints instrumented"},
    {"W006", "stale-reason",
     "tolerate_stale != false carries a same-line justification"},
    {"W007", "wall-clock-rng",
     "no wall clock, std::rand, or unseeded RNG in model code"},
    {"W008", "time-narrowing",
     "double<->integer time conversion only through sim/time.h"},
    {"W101", "hot-alloc",
     "no heap allocation on wave-hot paths (new, make_unique/shared, "
     "unreserved push_back, std::string, std::function)"},
    {"W102", "hot-throw",
     "no throw/try/catch inside wave-hot regions"},
    {"W103", "hot-lock",
     "no mutexes or atomics in the single-threaded sim core hot set"},
    {"W104", "hot-by-value",
     "no pass-by-value of heavy types across wave-hot signatures"},
    {"W105", "hot-io",
     "no printf-family or iostream I/O on wave-hot paths"},
    {"W106", "hot-unbatched",
     "no per-element Channel ops inside wave-hot loops (bulk API)"},
    {"W201", "dangling-after-suspend",
     "Task coroutines taking refs/pointers/views (or implicit this) "
     "carry a wave-lifetime(caller-awaits|spawn-safe: ...) contract"},
    {"W202", "lambda-coroutine",
     "no capturing-lambda coroutines (captures live in the closure, "
     "which dies at the first suspension when temporary)"},
    {"W203", "spawn-dangling",
     "Spawn() only detaches spawn-safe tasks; never caller-awaits "
     "coroutines or lambdas bound to the spawner's stack"},
    {"W205", "unstable-iteration",
     "no iteration over pointer-keyed unordered containers in model "
     "code (address-dependent order breaks determinism fingerprints)"},
    {"W206", "suspend-under-guard",
     "no co_await while a scoped guard or borrowed view local is live"},
    {"W303", "mutable-global-census",
     "every namespace-scope mutable variable and mutable function-"
     "local static in model code carries an inline allow(W303 ...) "
     "justification (ladder threads run deployments concurrently)"},
    {"W304", "dead-annotation",
     "no wave-lifetime contract or inline allow() that names nothing "
     "in the tree anymore"},
};

}  // namespace wa
