#include "analyze/source.h"

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>

namespace wa {

const char*
DomainName(Domain d)
{
    switch (d) {
        case Domain::kHost: return "host";
        case Domain::kNic: return "nic";
        case Domain::kPcie: return "pcie";
        case Domain::kNeutral: return "neutral";
        case Domain::kHarness: return "harness";
        default: return "unknown";
    }
}

std::optional<Domain>
ParseDomain(const std::string& name)
{
    if (name == "host") return Domain::kHost;
    if (name == "nic") return Domain::kNic;
    if (name == "pcie") return Domain::kPcie;
    if (name == "neutral") return Domain::kNeutral;
    if (name == "harness") return Domain::kHarness;
    return std::nullopt;
}

bool
MayInclude(Domain from, Domain to)
{
    if (from == Domain::kHarness) return true;
    if (to == Domain::kNeutral) return true;
    if (to == Domain::kPcie) return from != Domain::kNeutral;
    return from == to;  // concrete domains only reach themselves
}

SplitLine
LineSplitter::Split(const std::string& line)
{
    SplitLine out;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        const char next = i + 1 < line.size() ? line[i + 1] : '\0';
        if (in_block_comment_) {
            if (c == '*' && next == '/') {
                in_block_comment_ = false;
                ++i;
            } else {
                out.comment += c;
            }
            continue;
        }
        if (in_string_) {
            if (c == '\\') {
                out.code += "  ";
                ++i;
            } else if (c == quote_) {
                in_string_ = false;
                out.code += c;
            } else {
                out.code += ' ';
            }
            continue;
        }
        if (c == '/' && next == '/') {
            out.comment += line.substr(i + 2);
            break;
        }
        if (c == '/' && next == '*') {
            in_block_comment_ = true;
            ++i;
            continue;
        }
        if (c == '"' || c == '\'') {
            in_string_ = true;
            quote_ = c;
            out.code += c;
            continue;
        }
        out.code += c;
    }
    // Strings do not span lines in this codebase (no raw strings).
    in_string_ = false;
    return out;
}

namespace {

/** Records one parsed line's annotations into the file state. */
struct AnnotationScanner {
    bool file_hot = false;
    int hot_depth = 0;
    int next_region = 0;
    int open_region = 0;

    void
    Scan(SourceFile& f, const std::string& comment)
    {
        static const std::regex kDomainRe(R"(wave-domain:\s*([a-z]+))");
        // Anchored to the whole comment: prose *mentioning* wave-hot
        // (docs, fixture headers) must not mark a file hot; only a
        // standalone annotation line does.
        static const std::regex kHotRe(
            R"(^\s*wave-hot(:\s*(begin|end))?\s*$)");
        static const std::regex kAllowRe(
            R"(wave-analyze:\s*allow\(\s*((?:W[0-9]{3}[\s,]+)*W[0-9]{3}))");
        static const std::regex kIdRe(R"(W[0-9]{3})");
        static const std::regex kLifetimeRe(R"(wave-lifetime\()");

        const int line_no = static_cast<int>(f.raw.size());
        if (f.domain == Domain::kUnknown) {
            std::smatch m;
            if (std::regex_search(comment, m, kDomainRe)) {
                if (auto d = ParseDomain(m[1].str())) {
                    f.domain = *d;
                    f.domain_line = line_no;
                }
            }
        }
        std::smatch am;
        if (std::regex_search(comment, am, kAllowRe)) {
            AllowSite site;
            site.line = line_no;
            const std::string ids = am[1].str();
            auto begin =
                std::sregex_iterator(ids.begin(), ids.end(), kIdRe);
            for (auto it = begin; it != std::sregex_iterator(); ++it) {
                site.rules.push_back(it->str());
            }
            f.allows.push_back(std::move(site));
        }
        if (std::regex_search(comment, kLifetimeRe)) {
            f.lifetime_lines.push_back(line_no);
        }
        std::smatch hm;
        if (std::regex_search(comment, hm, kHotRe)) {
            const std::string kind = hm[2].str();
            if (kind == "begin") {
                if (hot_depth == 0) open_region = ++next_region;
                ++hot_depth;
            } else if (kind == "end") {
                if (hot_depth > 0) --hot_depth;
            } else {
                file_hot = true;
            }
        }
        // The `begin` line is hot; the `end` line is not.
        f.hot.push_back(hot_depth > 0 ? open_region : 0);
    }
};

}  // namespace

SourceFile
ParseSource(const std::string& report_path, const std::string& content)
{
    SourceFile f;
    f.path = report_path;
    LineSplitter splitter;
    AnnotationScanner scanner;
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line)) {
        f.raw.push_back(line);
        f.lines.push_back(splitter.Split(line));
        scanner.Scan(f, f.lines.back().comment);
    }
    if (scanner.file_hot) {
        const int file_region = ++scanner.next_region;
        for (int& h : f.hot) {
            if (h == 0) h = file_region;
        }
    }
    return f;
}

std::optional<SourceFile>
LoadFile(const std::filesystem::path& fullpath,
         const std::string& report_path)
{
    std::ifstream in(fullpath);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return ParseSource(report_path, buf.str());
}

int
ParenBalance(const std::string& s)
{
    int n = 0;
    for (char c : s) {
        if (c == '(') ++n;
        if (c == ')') --n;
    }
    return n;
}

int
BraceBalance(const std::string& s)
{
    int n = 0;
    for (char c : s) {
        if (c == '{') ++n;
        if (c == '}') --n;
    }
    return n;
}

std::string
CallArgument(const std::string& code, std::size_t open_paren)
{
    int depth = 0;
    for (std::size_t i = open_paren; i < code.size(); ++i) {
        if (code[i] == '(') ++depth;
        if (code[i] == ')') {
            --depth;
            if (depth == 0) {
                return code.substr(open_paren + 1, i - open_paren - 1);
            }
        }
    }
    return code.substr(open_paren + 1);
}

std::string
JoinedCallArgument(const SourceFile& f, std::size_t line,
                   std::size_t open_col)
{
    std::string out;
    int depth = 0;
    const std::size_t limit = std::min(f.lines.size(), line + 400);
    for (std::size_t i = line; i < limit; ++i) {
        const std::string& code = f.lines[i].code;
        const std::size_t start = i == line ? open_col : 0;
        for (std::size_t j = start; j < code.size(); ++j) {
            const char c = code[j];
            if (c == '(') {
                ++depth;
                if (depth == 1) continue;  // skip the opening paren
            }
            if (c == ')') {
                --depth;
                if (depth == 0) return out;
            }
            out += c;
        }
        out += '\n';
    }
    return out;
}

bool
PathHas(const std::string& path, const std::string& needle)
{
    return path.find(needle) != std::string::npos;
}

bool
PathEndsWith(const std::string& path, const std::string& tail)
{
    return path.size() >= tail.size() &&
           path.compare(path.size() - tail.size(), tail.size(), tail) ==
               0;
}

}  // namespace wa
