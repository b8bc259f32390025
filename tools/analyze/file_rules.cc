#include "analyze/file_rules.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace wa {

namespace {

namespace fs = std::filesystem;

/**
 * Namespaces owned wholly by one concrete domain. Mixed-domain
 * namespaces (ghost: host kernel + neutral policy ABI) are enforced at
 * include granularity by W002 instead.
 */
const std::map<std::string, Domain> kOwnedNamespaces = {
    {"sol", Domain::kNic},
    {"workload", Domain::kHost},
    {"rpc", Domain::kHost},
};

/**
 * Queue/txn endpoint files that must contain checker instrumentation:
 * the cross-domain data path is exactly where the dynamic checkers
 * watch for coherence and ordering bugs, so a hook-free endpoint file
 * means a blind spot. Matched as path suffixes.
 */
const char* const kEndpointFiles[] = {
    "channel/mmio_queue.cc", "channel/dma_queue.cc",
    "pcie/mmio.cc",          "pcie/dma.cc",
    "pcie/msix.cc",          "wave/txn.cc",
    "wave/shm_queue.h",
};

/**
 * wave::check entry points callable from model code. Mirrors the
 * public API of coherence.h, protocol.h, hb.h and stream_end.h plus
 * attach/bind helpers; extend when adding checker API. (Folded in from
 * the retired tools/lint_hooks.sh.)
 */
const char* const kCheckerCallRe =
    R"((->|\.)\s*()"
    "OnWrite|OnRead|OnCacheFill|OnCacheDrop|OnWcBuffered|"
    "OnWcDrained|OnDmaWrite|OnOrderingPoint|"
    "OnTxnCreated|OnTxnPublished|OnTxnDelivered|OnTxnOutcome|"
    "OnTxnOutcomeObserved|OnStreamSend|OnStreamRecv|"
    "OnTaskState|OnCommitDecision|OnWatchdogArmed|"
    "OnWatchdogExpired|OnWatchdogFed|"
    "OnAccess|OnRelease|OnAcquire|RegisterActor|AllowUnordered|"
    "RegisterSync|RegisterRegion|RegisterWindow|"
    "BindRing|SlotPublished|SlotConsumed|CounterPublished|CounterObserved|"
    "AttachChecker|AttachCheckers|AttachProtocol|AttachHb|"
    "BindCheckers"
    R"()\s*\()";

const char* const kWallClockRe =
    R"(\bstd::chrono\b|\bgettimeofday\b|\bclock_gettime\b)"
    R"(|\bstd::rand\b|\bsrand\s*\(|\brand\s*\(\s*\))"
    R"(|\brandom_device\b|\bstd::mt19937|\bsteady_clock\b)"
    R"(|\bsystem_clock\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\))";

/** Time-flavoured tokens: identifiers/calls that denote nanoseconds. */
const char* const kTimeTokenRe =
    R"((^|[^A-Za-z0-9_])ns([^A-Za-z0-9_]|$)|_ns\b|[A-Za-z0-9_]*Ns\b)"
    R"(|\.ns\(\)|\bNow\(\))";

/** Float-flavoured tokens inside a to-integer cast argument. */
const char* const kFloatTokenRe =
    R"(ToDouble\s*\(\)|\bghz\s*\(\)|[0-9]\.[0-9]|1e[0-9]|\bdouble\b)";

/**
 * Does a parenthesized argument read as a *parameter list* rather
 * than constructor arguments? Declarations carry `type name` pairs
 * ("std::size_t n", "const Bytes& b"); value expressions do not put
 * two identifiers back to back. A nameless pure declaration
 * ("Bytes Make(std::size_t);") is indistinguishable from a value at
 * text level and is accepted as a value — the inline allow() escape
 * hatch covers that corner.
 */
bool
LooksLikeParamList(const std::string& arg)
{
    if (arg.find_first_not_of(" \t\n") == std::string::npos) {
        return true;  // `()` — nothing sized about it either way
    }
    static const std::regex kParamPairRe(
        R"([A-Za-z_][\w:<>]*(\s*[&*])?\s+[A-Za-z_]\w*\s*(,|$))");
    return std::regex_search(arg, kParamPairRe);
}

}  // namespace

void
FileRules::Add(const std::string& path, int line, const char* rule,
               std::string message)
{
    findings.push_back({path, line, rule, std::move(message)});
}

Domain
FileRules::DomainOfInclude(const std::string& include_path)
{
    auto it = include_domains_.find(include_path);
    if (it != include_domains_.end()) return it->second;
    Domain d = Domain::kUnknown;
    const fs::path full = root_ / "src" / include_path;
    if (auto f = LoadFile(full, include_path)) d = f->domain;
    include_domains_[include_path] = d;
    return d;
}

void
FileRules::Analyze(const SourceFile& f)
{
    const bool in_check = PathHas(f.path, "check/");
    const bool time_bridge = PathEndsWith(f.path, "sim/time.h");

    if (f.domain == Domain::kUnknown) {
        Add(f.path, 1, "W001",
            "no `// wave-domain: host|nic|pcie|neutral|harness` "
            "annotation");
    }

    CheckIncludes(f);
    CheckSymbols(f);
    CheckHooks(f, in_check);
    CheckStaleReasons(f);
    CheckWallClock(f);
    if (!time_bridge) CheckTimeNarrowing(f);
    CheckEndpointCoverage(f);
    CheckHotPaths(f);
    if (f.domain != Domain::kHarness) CheckCoroutineContracts(f);
    CheckLambdaCoroutines(f);
    CheckSpawnSites(f);
    CheckUnstableIteration(f);
    CheckSuspendUnderGuard(f);
    // Checker shadow state is observer-side by construction: it never
    // feeds the model, so it stays out of the census.
    if (!in_check) CheckMutableGlobals(f);
    for (int line : DeadLifetimeLines(f)) {
        Add(f.path, line, "W304",
            "dead annotation: this wave-lifetime contract is attached "
            "to no Task-returning function head — the function it "
            "named moved or no longer exists");
    }
}

void
FileRules::CheckIncludes(const SourceFile& f)
{
    static const std::regex kIncludeRe(
        R"re(^\s*#\s*include\s+"([^"]+)")re");
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(f.raw[i], m, kIncludeRe)) continue;
        const std::string target = m[1].str();
        if (target.find('/') == std::string::npos) continue;
        const Domain to = DomainOfInclude(target);
        if (to == Domain::kUnknown) continue;
        if (f.domain == Domain::kUnknown) continue;
        if (!MayInclude(f.domain, to)) {
            Add(f.path, static_cast<int>(i + 1), "W002",
                std::string(DomainName(f.domain)) +
                    "-domain file includes " + DomainName(to) +
                    "-domain header \"" + target +
                    "\" (cross-domain access must go through the "
                    "pcie seam)");
        }
    }
}

void
FileRules::CheckSymbols(const SourceFile& f)
{
    if (f.domain == Domain::kPcie || f.domain == Domain::kHarness ||
        f.domain == Domain::kUnknown) {
        return;  // the seam may name both sides
    }
    static const std::regex kQualifiedRe(
        R"((?:wave::)?\b(sol|workload|rpc)::)");
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        auto begin = std::sregex_iterator(code.begin(), code.end(),
                                          kQualifiedRe);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string ns = (*it)[1].str();
            // A module may of course name itself.
            if (PathHas(f.path, ns + "/")) continue;
            const Domain owner = kOwnedNamespaces.at(ns);
            if (owner == f.domain) continue;
            Add(f.path, static_cast<int>(i + 1), "W003",
                std::string(DomainName(f.domain)) +
                    "-domain file names " + DomainName(owner) +
                    "-owned symbol `" + ns +
                    "::...` (route through the pcie seam instead)");
        }
    }
}

void
FileRules::CheckHooks(const SourceFile& f, bool in_check)
{
    if (in_check) return;
    static const std::regex kCallRe(kCheckerCallRe);
    int hook_balance = 0;     // open parens of WAVE_CHECK_HOOK(...)
    std::vector<bool> gated;  // #if nesting: WAVE_CHECK_ENABLED?
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& raw = f.raw[i];
        const std::string& code = f.lines[i].code;
        static const std::regex kIfRe(R"(^\s*#\s*if)");
        static const std::regex kElRe(R"(^\s*#\s*el)");
        static const std::regex kEndifRe(R"(^\s*#\s*endif)");
        if (std::regex_search(raw, kIfRe)) {
            gated.push_back(raw.find("WAVE_CHECK_ENABLED") !=
                            std::string::npos);
        } else if (std::regex_search(raw, kElRe)) {
            if (!gated.empty()) {
                gated.back() = raw.find("WAVE_CHECK_ENABLED") !=
                               std::string::npos;
            }
        } else if (std::regex_search(raw, kEndifRe)) {
            if (!gated.empty()) gated.pop_back();
        }
        const bool in_gate = std::any_of(gated.begin(), gated.end(),
                                         [](bool g) { return g; });

        bool in_hook = hook_balance > 0;
        const auto hook_pos = code.find("WAVE_CHECK_HOOK");
        if (hook_pos != std::string::npos) {
            in_hook = true;
            hook_balance += ParenBalance(code.substr(hook_pos));
        } else if (hook_balance > 0) {
            hook_balance += ParenBalance(code);
        }
        if (hook_balance < 0) hook_balance = 0;

        if (!in_hook && !in_gate && std::regex_search(code, kCallRe)) {
            Add(f.path, static_cast<int>(i + 1), "W005",
                "checker call outside WAVE_CHECK_HOOK(...) or an "
                "#ifdef WAVE_CHECK_ENABLED block");
        }
    }
}

void
FileRules::CheckStaleReasons(const SourceFile& f)
{
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& raw = f.raw[i];
        static const std::regex kStaleRe(
            R"(/\*\s*tolerate_stale\s*=\s*\*/\s*([A-Za-z_][A-Za-z0-9_:\.]*|true|false))");
        std::smatch m;
        if (!std::regex_search(raw, m, kStaleRe)) continue;
        if (m[1].str() == "false") continue;
        // The /*tolerate_stale=*/ argument annotation itself lands
        // in the comment channel; it is not a justification.
        static const std::regex kSelfRe(R"(\s*tolerate_stale\s*=\s*)");
        const std::string note =
            std::regex_replace(f.lines[i].comment, kSelfRe, "");
        if (note.empty()) {
            Add(f.path, static_cast<int>(i + 1), "W006",
                "tolerate_stale without a same-line justification "
                "comment");
        }
    }
}

void
FileRules::CheckWallClock(const SourceFile& f)
{
    static const std::regex kBanRe(kWallClockRe);
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(f.lines[i].code, m, kBanRe)) {
            Add(f.path, static_cast<int>(i + 1), "W007",
                "determinism-hostile construct `" + m[0].str() +
                    "` in model code (use sim::Rng / sim::Simulator "
                    "time instead)");
        }
    }
}

void
FileRules::CheckTimeNarrowing(const SourceFile& f)
{
    static const std::regex kToDoubleRe(
        R"(static_cast<\s*double\s*>\s*\()");
    static const std::regex kToIntRe(
        R"(static_cast<\s*(?:std::)?u?int(?:64|32)_t\s*>\s*\()");
    static const std::regex kTimeTok(kTimeTokenRe);
    static const std::regex kFloatTok(kFloatTokenRe);
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        std::smatch m;
        if (std::regex_search(code, m, kToDoubleRe)) {
            const auto open =
                static_cast<std::size_t>(m.position(0)) + m.length(0) -
                1;
            const std::string arg = CallArgument(code, open);
            if (std::regex_search(arg, kTimeTok)) {
                Add(f.path, static_cast<int>(i + 1), "W008",
                    "ad-hoc time->double cast; use "
                    "DurationNs/TimeNs ToDouble(), ToUs(), ToMs() "
                    "(sim/time.h is the only sanctioned bridge)");
            }
        }
        if (std::regex_search(code, m, kToIntRe)) {
            const auto open =
                static_cast<std::size_t>(m.position(0)) + m.length(0) -
                1;
            const std::string arg = CallArgument(code, open);
            if (std::regex_search(arg, kFloatTok) &&
                std::regex_search(code, kTimeTok)) {
                Add(f.path, static_cast<int>(i + 1), "W008",
                    "ad-hoc double->integer time cast; use "
                    "DurationNs::FromDouble()/TimeNs::FromDouble() "
                    "(sim/time.h is the only sanctioned bridge)");
            }
        }
    }
}

bool
FileRules::RegionReserves(const SourceFile& f, int region,
                          std::size_t upto)
{
    static const std::regex kReserveRe(
        R"((\.|->)\s*([Rr]eserve|resize)\s*\()");
    for (std::size_t j = 0; j < upto; ++j) {
        if (f.hot[j] != region) continue;
        if (std::regex_search(f.lines[j].code, kReserveRe)) {
            return true;
        }
    }
    return false;
}

/**
 * W101-W106: the per-event performance rules. Text-level like the
 * rest of the tool; each pattern names the construct so a reader
 * can judge the finding without opening the file.
 */
void
FileRules::CheckHotPaths(const SourceFile& f)
{
    static const std::regex kNewRe(R"(\bnew\s+[A-Za-z_:])");
    static const std::regex kMakeRe(
        R"(\bstd::make_(unique|shared)\s*<)");
    static const std::regex kGrowRe(
        R"((\.|->)\s*(push_back|emplace_back)\s*\()");
    static const std::regex kStringRe(
        R"(\bstd::string\s+[A-Za-z_]\w*\s*[;({=])"
        R"(|\bstd::string\s*[({])"
        R"(|\bstd::(to_string|ostringstream|stringstream)\b)");
    static const std::regex kFunctionRe(R"(\bstd::function\s*<)");
    // Any identifier can name a sized-buffer local (snake_case,
    // camelCase, DmaScratch-style mixed case alike); one-line function
    // declarations returning a buffer type are told apart by their
    // argument text (a parameter list, not constructor arguments) —
    // see LooksLikeParamList.
    static const std::regex kSizedBufRe(
        R"(\b(Bytes|std::vector\s*<[^;=(){}]*>)\s+[A-Za-z_]\w*\s*\()");
    static const std::regex kThrowRe(R"(\b(throw|try|catch)\b)");
    static const std::regex kLockRe(
        R"(\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex)"
        R"(|lock_guard|scoped_lock|unique_lock|condition_variable)"
        R"(|atomic)\b|\bmemory_order_seq_cst\b)");
    static const std::regex kHeavyParamRe(
        R"(\b(std::string|std::vector\s*<[^;=(){}]*>)"
        R"(|std::deque\s*<[^;=(){}]*>|std::map\s*<[^;=(){}]*>)"
        R"(|Bytes|[A-Za-z_]*Config|[A-Za-z_]*Stats))"
        R"(\s+[A-Za-z_]\w*\s*[,)])");
    static const std::regex kIoRe(
        R"(\b(printf|fprintf|sprintf|snprintf|puts|fputs|putchar)"
        R"(|fwrite|fflush)\s*\()"
        R"(|\bstd::(cout|cerr|clog|ostream|ofstream|ifstream)"
        R"(|fstream|getline)\b)");
    static const std::regex kLoopRe(R"(\b(for|while)\s*\()");
    static const std::regex kChanOpRe(
        R"((\.|->)\s*(Push|Receive|TryReceive)\s*\()");

    int depth = 0;           // brace depth across the file
    std::vector<int> loops;  // brace depth at each open hot loop
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        const int line_no = static_cast<int>(i + 1);
        const bool hot = f.hot[i] > 0;

        if (hot && std::regex_search(code, kLoopRe)) {
            loops.push_back(depth);
        }

        if (hot) {
            std::smatch m;
            if (std::regex_search(code, m, kNewRe)) {
                Add(f.path, line_no, "W101",
                    "`new` on a hot path; use a pool or inline "
                    "storage (per-event allocation breaks the "
                    "wimpy-core budget)");
            }
            if (std::regex_search(code, m, kMakeRe)) {
                Add(f.path, line_no, "W101",
                    "make_" + m[1].str() +
                        " on a hot path; allocate at setup time or "
                        "pool the object");
            }
            if (std::regex_search(code, m, kGrowRe) &&
                !RegionReserves(f, f.hot[i], i)) {
                Add(f.path, line_no, "W101",
                    m[2].str() +
                        " without an earlier reserve() in the same "
                        "hot region (amortized reallocation is still "
                        "a per-event allocation)");
            }
            if (std::regex_search(code, m, kStringRe)) {
                Add(f.path, line_no, "W101",
                    "std::string construction on a hot path "
                    "(string building belongs in cold "
                    "reporting code)");
            }
            if (std::regex_search(code, m, kFunctionRe)) {
                Add(f.path, line_no, "W101",
                    "std::function on a hot path; its capture "
                    "heap-allocates (use sim::InlineFn or a "
                    "template parameter)");
            }
            if (std::regex_search(code, m, kSizedBufRe)) {
                const auto open = static_cast<std::size_t>(
                    m.position(0) + m.length(0) - 1);
                if (!LooksLikeParamList(CallArgument(code, open))) {
                    Add(f.path, line_no, "W101",
                        "sized " + m[1].str() +
                            " local on a hot path; reuse a pooled "
                            "scratch buffer instead");
                }
            }
            if (std::regex_search(code, m, kThrowRe)) {
                Add(f.path, line_no, "W102",
                    "`" + m[1].str() +
                        "` inside a hot region (exception machinery "
                        "is for cold recovery paths only)");
            }
            if (std::regex_search(code, m, kLockRe)) {
                Add(f.path, line_no, "W103",
                    "`" + m[0].str() +
                        "` on a hot path: the sim core is "
                        "single-threaded by design and needs no "
                        "synchronization");
            }
            if (std::regex_search(code, m, kHeavyParamRe)) {
                Add(f.path, line_no, "W104",
                    "heavy type `" + m[1].str() +
                        "` passed by value across a hot signature; "
                        "take const& or a span");
            }
            if (std::regex_search(code, m, kIoRe)) {
                Add(f.path, line_no, "W105",
                    "I/O call `" + m[0].str() +
                        "` on a hot path (format and print from "
                        "cold reporting code)");
            }
            if (!loops.empty() && std::regex_search(code, m, kChanOpRe)) {
                Add(f.path, line_no, "W106",
                    "per-element Channel " + m[2].str() +
                        "() inside a hot loop; use "
                        "PushBatch()/TryReceiveBatch() to pay the "
                        "notify/schedule cost once");
            }
        }

        depth += BraceBalance(code);
        while (!loops.empty() && depth <= loops.back()) {
            loops.pop_back();
        }
    }
}

void
FileRules::CheckEndpointCoverage(const SourceFile& f)
{
    for (const char* endpoint : kEndpointFiles) {
        if (!PathEndsWith(f.path, endpoint)) continue;
        for (const auto& line : f.lines) {
            if (line.code.find("WAVE_CHECK_HOOK") !=
                std::string::npos) {
                return;
            }
        }
        Add(f.path, 1, "W005",
            "queue/txn endpoint file carries no WAVE_CHECK_HOOK "
            "instrumentation (checker blind spot)");
    }
}

// --- W200 series: concurrency readiness -------------------------------

/**
 * W201: every Task coroutine definition whose frame holds borrowed
 * state (reference/pointer/view parameters, or the implicit `this`
 * of an out-of-line member) must state its argument-lifetime
 * contract. A contract on a same-name declaration elsewhere in the
 * analyzed set (the header) also satisfies the definition, so the
 * public API carries the annotation once. Matching is name-
 * granular: overloads share a contract.
 */
void
FileRules::CheckCoroutineContracts(const SourceFile& f)
{
    for (const Coroutine& c : f.coroutines) {
        if (c.contract == Contract::kMalformed) {
            Add(f.path, c.sig_line, "W201",
                "malformed wave-lifetime annotation `" +
                    c.contract_text +
                    "`; use wave-lifetime(caller-awaits) or "
                    "wave-lifetime(spawn-safe: <why the referents "
                    "outlive the frame>)");
            continue;
        }
        if (!c.is_definition || !c.is_coroutine) continue;
        if (!c.ref_params && !c.qualified) continue;
        if (c.contract != Contract::kNone) continue;
        const auto it = registry.find(c.name);
        if (it != registry.end() && it->second.annotated) continue;
        const char* what =
            c.ref_params
                ? (c.qualified ? "reference/pointer parameters and the "
                                 "implicit `this`"
                               : "reference/pointer/view parameters")
                : "the implicit `this` of an out-of-line member";
        Add(f.path, c.sig_line, "W201",
            "coroutine `" + c.full_name + "` holds " + what +
                " across its initial suspension but states no "
                "lifetime contract; annotate the declaration or "
                "definition with wave-lifetime(caller-awaits) or "
                "wave-lifetime(spawn-safe: <reason>)");
    }
}

/**
 * W202: a lambda with a non-empty capture list whose explicit
 * return type is a Task. Inside the coroutine the captures are
 * reached through the closure object; when the closure is a
 * temporary (the overwhelmingly common case for lambda arguments)
 * every capture dangles from the first suspension on. A capturing
 * lambda may *construct and return* a named coroutine's task (no
 * explicit -> Task return type needed, captures are read before
 * any suspension); it must not *be* the coroutine.
 */
void
FileRules::CheckLambdaCoroutines(const SourceFile& f)
{
    static const std::regex kCaptureCoroRe(
        R"(\[\s*[^\]\s][^\]]*\]\s*(\([^)]*\))?\s*->\s*)"
        R"((?:[A-Za-z_]\w*::)*Task\s*<)");
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        if (std::regex_search(f.lines[i].code, kCaptureCoroRe)) {
            Add(f.path, static_cast<int>(i + 1), "W202",
                "capturing-lambda coroutine: the frame references "
                "the closure object, which dies at the first "
                "suspension when the lambda is a temporary; move "
                "the body into a named coroutine taking the state "
                "explicitly (a capture-free lambda may still "
                "construct and return its task)");
        }
    }
}

/**
 * W203: Spawn() detaches a frame from the spawning stack, so the
 * task must not borrow that stack. Three textual triggers:
 * immediately-invoked lambdas binding reference parameters to the
 * spawner's locals, named coroutines under a caller-awaits
 * contract (detaching violates it), and named reference-taking
 * coroutines with no contract at all.
 */
void
FileRules::CheckSpawnSites(const SourceFile& f)
{
    static const std::regex kSpawnRe(R"(\bSpawn\s*\()");
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        std::smatch m;
        if (!std::regex_search(code, m, kSpawnRe)) continue;
        const auto open =
            static_cast<std::size_t>(m.position(0)) + m.length(0) - 1;
        const std::string arg = JoinedCallArgument(f, i, open);
        const int line_no = static_cast<int>(i + 1);
        AnalyzeSpawnArgument(f, line_no, arg);
    }
}

void
FileRules::AnalyzeSpawnArgument(const SourceFile& f, int line_no,
                                const std::string& arg)
{
    std::size_t p = 0;
    const auto skip_ws = [&] {
        while (p < arg.size() &&
               std::isspace(static_cast<unsigned char>(arg[p]))) {
            ++p;
        }
    };
    skip_ws();
    if (p < arg.size() && arg[p] == '[') {
        // Lambda: [captures](params) -> ret {body} (invoke-args)
        std::size_t q = p;
        int depth = 0;
        for (; q < arg.size(); ++q) {
            if (arg[q] == '[') ++depth;
            if (arg[q] == ']' && --depth == 0) break;
        }
        if (q >= arg.size()) return;
        p = q + 1;
        skip_ws();
        std::string params;
        if (p < arg.size() && arg[p] == '(') {
            const std::size_t params_open = p;
            depth = 0;
            for (; p < arg.size(); ++p) {
                if (arg[p] == '(') ++depth;
                if (arg[p] == ')' && --depth == 0) break;
            }
            if (p >= arg.size()) return;
            params = arg.substr(params_open + 1, p - params_open - 1);
            ++p;
        }
        // Skip to the body and over it.
        while (p < arg.size() && arg[p] != '{') ++p;
        if (p >= arg.size()) return;
        depth = 0;
        for (; p < arg.size(); ++p) {
            if (arg[p] == '{') ++depth;
            if (arg[p] == '}' && --depth == 0) break;
        }
        if (p >= arg.size()) return;
        ++p;
        skip_ws();
        // Immediate invocation?
        if (p < arg.size() && arg[p] == '(') {
            const std::string invoke = CallArgument(arg, p);
            const bool has_args =
                invoke.find_first_not_of(" \t\n") != std::string::npos;
            if (has_args && ParamsHaveRefs(params)) {
                Add(f.path, line_no, "W203",
                    "spawned task binds reference parameters to "
                    "the Spawn caller's stack frame; the frame "
                    "outlives this scope unless the referents are "
                    "kept alive past Run() — pass owned state or "
                    "use a named spawn-safe coroutine");
            }
        }
        return;
    }
    // std::move(var) or a plain variable/member: ownership already
    // settled elsewhere.
    static const std::regex kVarRe(
        R"(^(?:std::move\s*\(\s*)?[A-Za-z_][\w:.\->]*\s*\)?\s*$)");
    const std::string tail = arg.substr(p);
    if (std::regex_match(tail, kVarRe)) return;
    // Named call: take the identifier directly before the first
    // '(' (the last path component of the callee).
    static const std::regex kCalleeRe(R"(([A-Za-z_]\w*)\s*\()");
    std::smatch cm;
    if (!std::regex_search(tail, cm, kCalleeRe)) return;
    const std::string callee = cm[1].str();
    const auto it = registry.find(callee);
    if (it == registry.end()) return;  // unknown: out of scope
    const ContractEntry& e = it->second;
    if (e.spawn_safe) return;
    if (e.caller_awaits) {
        Add(f.path, line_no, "W203",
            "Spawn() detaches `" + callee +
                "`, which is annotated wave-lifetime("
                "caller-awaits); detaching violates its contract — "
                "await it instead, or give it a spawn-safe "
                "contract explaining why its referents outlive "
                "the frame");
        return;
    }
    if (e.ref_params) {
        Add(f.path, line_no, "W203",
            "Spawn() detaches `" + callee +
                "`, a coroutine holding references with no "
                "wave-lifetime(spawn-safe: ...) contract; state "
                "why every referent outlives the frame, or pass "
                "owned state");
    }
}

/**
 * W205: range-for (or .begin() iteration) over a container
 * declared as a pointer-keyed unordered_map/unordered_set in the
 * same file. Hash order of pointers is address order: it varies
 * run to run, so anything downstream of the iteration (event
 * scheduling, stats, reports) loses fingerprint stability. Keyed
 * lookups stay fine.
 */
void
FileRules::CheckUnstableIteration(const SourceFile& f)
{
    static const std::regex kUnorderedRe(
        R"(\bunordered_(map|set)\s*<)");
    // Names of variables declared with a pointer-keyed type.
    std::set<std::string> ptr_keyed;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        std::smatch m;
        if (!std::regex_search(code, m, kUnorderedRe)) continue;
        // Join a short window so multi-line declarations parse.
        std::string decl = code;
        for (std::size_t j = i + 1;
             j < std::min(f.lines.size(), i + 4); ++j) {
            decl += ' ';
            decl += f.lines[j].code;
        }
        const auto angle =
            decl.find('<', static_cast<std::size_t>(m.position(0)));
        if (angle == std::string::npos) continue;
        int depth = 0;
        std::size_t q = angle;
        std::size_t key_end = std::string::npos;
        for (; q < decl.size(); ++q) {
            if (decl[q] == '<') ++depth;
            if (decl[q] == '>' && --depth == 0) break;
            if (decl[q] == ',' && depth == 1 &&
                key_end == std::string::npos) {
                key_end = q;
            }
        }
        if (q >= decl.size()) continue;
        const std::size_t kend =
            key_end == std::string::npos ? q : key_end;
        const std::string key =
            decl.substr(angle + 1, kend - angle - 1);
        if (key.find('*') == std::string::npos) continue;
        // Variable name after the closing '>'.
        static const std::regex kVarNameRe(
            R"(^\s*([A-Za-z_]\w*)\s*[;={(])");
        const std::string after = decl.substr(q + 1);
        std::smatch vm;
        if (std::regex_search(after, vm, kVarNameRe)) {
            ptr_keyed.insert(vm[1].str());
        }
    }
    if (ptr_keyed.empty()) return;
    static const std::regex kRangeForRe(
        R"(\bfor\s*\([^;)]*:\s*([A-Za-z_]\w*)\s*\))");
    static const std::regex kBeginRe(
        R"(\b([A-Za-z_]\w*)\s*\.\s*(?:begin|cbegin)\s*\()");
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        std::smatch m;
        std::string name;
        if (std::regex_search(code, m, kRangeForRe)) {
            name = m[1].str();
        } else if (std::regex_search(code, m, kBeginRe)) {
            name = m[1].str();
        } else {
            continue;
        }
        if (ptr_keyed.count(name) == 0) continue;
        Add(f.path, static_cast<int>(i + 1), "W205",
            "iteration over pointer-keyed unordered container `" +
                name +
                "`; hash order is address order and differs run "
                "to run — key by a stable id, use a sorted "
                "container, or snapshot-and-sort before "
                "iterating");
    }
}

/**
 * W206: a co_await inside the lexical scope of a live scoped
 * guard (types named *Guard, the lock_guard family) or a borrowed
 * view local (string_view, span). Suspension runs arbitrary other
 * events before resuming: a guard spans foreign event execution it
 * was never meant to cover, and a borrowed view's backing store may
 * be mutated or freed by the time the frame resumes.
 */
void
FileRules::CheckSuspendUnderGuard(const SourceFile& f)
{
    static const std::regex kGuardDeclRe(
        R"(\b((?:std::)?(?:lock_guard|scoped_lock|unique_lock)"
        R"(|shared_lock)\s*(?:<[^;>]*>)?|[A-Za-z_]\w*Guard))"
        R"(\s+[A-Za-z_]\w*\s*[({;=])");
    static const std::regex kViewDeclRe(
        R"(\b(std::string_view|std::span\s*<[^;>]*>))"
        R"(\s+[A-Za-z_]\w*\s*[=({])");
    static const std::regex kCoAwaitRe(R"(\bco_await\b)");
    struct Live {
        int depth;
        int line;
        std::string what;
    };
    std::vector<Live> live;
    int depth = 0;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        const int line_no = static_cast<int>(i + 1);
        std::smatch m;
        if (std::regex_search(code, m, kGuardDeclRe) ||
            std::regex_search(code, m, kViewDeclRe)) {
            live.push_back({depth, line_no, m[1].str()});
        }
        if (!live.empty() && std::regex_search(code, kCoAwaitRe)) {
            const Live& g = live.back();
            Add(f.path, line_no, "W206",
                "co_await while `" + g.what + "` (declared line " +
                    std::to_string(g.line) +
                    ") is live; the suspension runs other events "
                    "under the guard / behind the borrowed view — "
                    "release it before suspending or copy what "
                    "you need");
        }
        depth += BraceBalance(code);
        while (!live.empty() && depth < live.back().depth) {
            live.pop_back();
        }
    }
}

/**
 * W303: the mutable-global census. The saturation ladder runs whole
 * deployments on parallel threads, so a namespace-scope mutable
 * variable or a mutable function-local static is state that concurrent
 * simulations share. A global is defined in exactly one file, so the
 * census needs no cross-file view. The scan tracks what each brace
 * opens (a namespace, a class or enum, or a function body or
 * initializer); only a line that starts a statement at namespace scope
 * can define a global, so a defaulted parameter on a declaration's
 * continuation line, a class's static data member and a body's plain
 * locals stay silent.
 */
void
FileRules::CheckMutableGlobals(const SourceFile& f)
{
    static const std::regex kGlobalRe(
        R"(^\s*((?:static|inline|extern|thread_local|constexpr)"
        R"(|constinit|const|mutable)\s+)*)"
        R"([\w:]+(\s*<[^;{}()]*>)?(\s*[&*]|\s)\s*)"
        R"(((?:\w+::)*[A-Za-z_]\w*)(\s*\[[^\]]*\])?\s*(=|;|\{))");
    static const std::regex kLocalStaticRe(
        R"(^\s*static\s+[\w:]+(\s*<[^;{}()]*>)?(\s*[&*]|\s)\s*)"
        R"(([A-Za-z_]\w*)\s*(=|;|\{|\())");
    static const std::regex kConstRe(R"(\b(const|constexpr|constinit)\b)");
    static const std::regex kNotVarRe(
        R"(^\s*(using|typedef|friend|template|return|extern|namespace)"
        R"(|class|struct|union|enum)\b)");
    static const std::regex kTypeHeadRe(
        R"(^\s*(template\s*<.*>\s*)?(class|struct|union|enum)\b[^(]*$)");
    static const std::regex kNamespaceHeadRe(R"(\bnamespace\b)");
    enum class Brace { kNamespace, kType, kBody };
    std::vector<Brace> open;
    std::string head;  // statement text since the last ; { or }
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& code = f.lines[i].code;
        const auto first = f.raw[i].find_first_not_of(" \t");
        if (first != std::string::npos && f.raw[i][first] == '#') continue;
        const bool statement_start =
            head.find_first_not_of(" \t") == std::string::npos;
        const bool at_namespace =
            open.empty() || open.back() == Brace::kNamespace;
        const bool in_body = std::find(open.begin(), open.end(),
                                       Brace::kBody) != open.end();
        std::smatch m;
        std::string what;
        if (statement_start && at_namespace &&
            std::regex_search(code, m, kGlobalRe) &&
            !std::regex_search(code, kNotVarRe)) {
            what = "namespace-scope mutable variable `" + m[4].str();
        } else if (in_body && std::regex_search(code, m, kLocalStaticRe)) {
            what = "mutable function-local static `" + m[3].str();
        }
        if (!what.empty() && !std::regex_search(code, kConstRe)) {
            Add(f.path, static_cast<int>(i + 1), "W303",
                what + "` lives outside every simulation object, where "
                       "concurrent ladder threads can reach it; justify "
                       "it inline with allow(W303 <reason>)");
        }
        for (const char c : code) {
            if (c == '{') {
                open.push_back(std::regex_search(head, kNamespaceHeadRe)
                                   ? Brace::kNamespace
                               : std::regex_search(head, kTypeHeadRe)
                                   ? Brace::kType
                                   : Brace::kBody);
                head.clear();
            } else if (c == '}') {
                if (!open.empty()) open.pop_back();
                head.clear();
            } else if (c == ';') {
                head.clear();
            } else {
                head += c;
            }
        }
        head += ' ';
    }
}

}  // namespace wa
