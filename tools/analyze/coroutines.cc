#include "analyze/coroutines.h"

#include <algorithm>
#include <cctype>
#include <regex>

namespace wa {

bool
ParamsHaveRefs(const std::string& params)
{
    static const std::regex kRefRe(
        R"([&*]|\bstring_view\b|\bspan\s*<)");
    return std::regex_search(params, kRefRe);
}

namespace {

/**
 * Parses the wave-lifetime contract from the comment channel of lines
 * [from, to] (1-based, inclusive, clamped). First annotation wins.
 */
Contract
ContractIn(const SourceFile& f, int from, int to, std::string* text)
{
    static const std::regex kLifetimeRe(R"(wave-lifetime\(([^)]*)\))");
    const int lo = std::max(from, 1);
    const int hi = std::min(to, static_cast<int>(f.lines.size()));
    for (int i = lo; i <= hi; ++i) {
        const std::string& comment =
            f.lines[static_cast<std::size_t>(i - 1)].comment;
        std::smatch m;
        if (!std::regex_search(comment, m, kLifetimeRe)) continue;
        std::string arg = m[1].str();
        *text = arg;
        if (arg == "caller-awaits") return Contract::kCallerAwaits;
        const std::string kPrefix = "spawn-safe:";
        if (arg.compare(0, kPrefix.size(), kPrefix) == 0) {
            std::string reason = arg.substr(kPrefix.size());
            reason.erase(0, reason.find_first_not_of(" \t"));
            if (!reason.empty()) return Contract::kSpawnSafe;
        }
        return Contract::kMalformed;
    }
    return Contract::kNone;
}

}  // namespace

std::vector<Coroutine>
ParseCoroutines(const SourceFile& f)
{
    std::vector<Coroutine> out;
    static const std::regex kHeadStartRe(
        R"(^\s*(?:(?:inline|static|virtual|constexpr|friend|explicit)\s+)"
        R"(|\[\[nodiscard\]\]\s*)*((?:[A-Za-z_]\w*::)*)Task\s*<)");
    const std::size_t n = f.lines.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::smatch m;
        if (!std::regex_search(f.lines[i].code, m, kHeadStartRe)) {
            continue;
        }
        // Join a bounded window of code lines and parse by hand from
        // the '<' of Task<...>.
        std::string head;
        std::vector<std::size_t> line_of;  // head index -> file line
        const std::size_t window = std::min(n, i + 16);
        for (std::size_t j = i; j < window; ++j) {
            for (char c : f.lines[j].code) {
                head += c;
                line_of.push_back(j);
            }
            head += '\n';
            line_of.push_back(j);
        }
        const std::size_t angle_open = static_cast<std::size_t>(
            m.position(0) + m.length(0) - 1);
        // Match the template argument list.
        int angles = 0;
        std::size_t p = angle_open;
        for (; p < head.size(); ++p) {
            if (head[p] == '<') ++angles;
            if (head[p] == '>' && --angles == 0) break;
            if (head[p] == ';' || head[p] == '{') break;  // not a head
        }
        if (p >= head.size() || head[p] != '>') continue;
        ++p;
        while (p < head.size() &&
               std::isspace(static_cast<unsigned char>(head[p]))) {
            ++p;
        }
        // Function name, possibly Class::qualified, where the class may
        // be a template: the parse steps over a balanced <...> that is
        // followed by ::.
        const std::size_t name_start = p;
        while (p < head.size()) {
            if (std::isalnum(static_cast<unsigned char>(head[p])) ||
                head[p] == '_' || head[p] == ':') {
                ++p;
                continue;
            }
            if (head[p] != '<') break;
            int depth = 0;
            std::size_t q = p;
            for (; q < head.size(); ++q) {
                if (head[q] == '<') ++depth;
                if (head[q] == '>' && --depth == 0) break;
                if (head[q] == '(' || head[q] == ';' || head[q] == '{') break;
            }
            if (q >= head.size() || head[q] != '>' ||
                head.compare(q + 1, 2, "::") != 0) {
                break;
            }
            p = q + 1;
        }
        if (p == name_start) continue;
        const std::string full_name =
            head.substr(name_start, p - name_start);
        while (p < head.size() &&
               std::isspace(static_cast<unsigned char>(head[p]))) {
            ++p;
        }
        if (p >= head.size() || head[p] != '(') continue;
        // Parameter list.
        int parens = 0;
        const std::size_t params_open = p;
        for (; p < head.size(); ++p) {
            if (head[p] == '(') ++parens;
            if (head[p] == ')' && --parens == 0) break;
        }
        if (p >= head.size()) continue;
        const std::string params =
            head.substr(params_open + 1, p - params_open - 1);
        ++p;
        // Skip trailing qualifiers to the head terminator.
        std::size_t term = std::string::npos;
        char term_char = '\0';
        for (; p < head.size(); ++p) {
            const char c = head[p];
            if (c == '{' || c == ';' || c == '=') {
                term = p;
                term_char = c;
                break;
            }
            if (std::isspace(static_cast<unsigned char>(c)) ||
                std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_') {
                continue;  // const / noexcept / override / final
            }
            break;  // anything else: not a function head
        }
        if (term == std::string::npos) continue;

        Coroutine c;
        c.full_name = full_name;
        const auto colon = full_name.rfind("::");
        c.name = colon == std::string::npos ? full_name
                                            : full_name.substr(colon + 2);
        c.qualified = colon != std::string::npos;
        c.ref_params = ParamsHaveRefs(params);
        c.sig_line = static_cast<int>(i + 1);
        c.head_end = static_cast<int>(line_of[term] + 1);
        c.is_definition = term_char == '{';
        c.contract =
            ContractIn(f, c.sig_line - 2, c.head_end, &c.contract_text);

        if (c.is_definition) {
            // Scan the body for co_await/co_return/co_yield.
            static const std::regex kCoRe(
                R"(\bco_(await|return|yield)\b)");
            int depth = 0;
            bool entered = false;
            for (std::size_t j = line_of[term];
                 j < n && !(entered && depth == 0); ++j) {
                const std::string& code = f.lines[j].code;
                if (!entered || depth > 0) {
                    if (std::regex_search(code, kCoRe)) {
                        c.is_coroutine = true;
                    }
                }
                depth += BraceBalance(code);
                if (depth > 0) entered = true;
                if (entered && depth <= 0) break;
            }
        }
        out.push_back(std::move(c));
        // Resume scanning after the head (bodies cannot start heads at
        // line scope in this codebase).
        i = static_cast<std::size_t>(c.head_end) - 1;
    }
    return out;
}

void
MergeContracts(const SourceFile& f, ContractRegistry& registry)
{
    for (const Coroutine& c : f.coroutines) {
        ContractEntry& e = registry[c.name];
        e.spawn_safe |= c.contract == Contract::kSpawnSafe;
        e.caller_awaits |= c.contract == Contract::kCallerAwaits;
        e.ref_params |= c.ref_params || c.qualified;
        e.annotated |= c.contract == Contract::kCallerAwaits ||
                       c.contract == Contract::kSpawnSafe;
    }
}

std::vector<int>
DeadLifetimeLines(const SourceFile& f)
{
    std::vector<int> dead;
    for (int line : f.lifetime_lines) {
        bool covered = false;
        for (const Coroutine& c : f.coroutines) {
            if (line >= c.sig_line - 2 && line <= c.head_end) {
                covered = true;
                break;
            }
        }
        if (!covered) dead.push_back(line);
    }
    return dead;
}

}  // namespace wa
