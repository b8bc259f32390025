#include "analyze/report.h"

#include <cstdio>
#include <regex>
#include <string>

namespace wa {

/**
 * One allow() may list several rule ids before the justification:
 * `allow(W101 W105 formatting happens once at shutdown)`. The allow
 * must sit in a comment: the splitter blanks string literals out of
 * the comment channel, so quoting the incantation never suppresses.
 */
bool
InlineSuppressed(const SourceFile& f, const Finding& finding,
                 int* allow_line)
{
    static const std::regex kAllowRe(
        R"(wave-analyze:\s*allow\(\s*((?:W[0-9]{3}[\s,]+)*W[0-9]{3}))");
    static const std::regex kIdRe(R"(W[0-9]{3})");
    const auto check = [&](int line_no) {
        if (line_no < 1 ||
            line_no > static_cast<int>(f.lines.size())) {
            return false;
        }
        const std::string& comment =
            f.lines[static_cast<std::size_t>(line_no - 1)].comment;
        std::smatch m;
        if (!std::regex_search(comment, m, kAllowRe)) return false;
        const std::string ids = m[1].str();
        auto begin =
            std::sregex_iterator(ids.begin(), ids.end(), kIdRe);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            if (it->str() == finding.rule) {
                if (allow_line != nullptr) *allow_line = line_no;
                return true;
            }
        }
        return false;
    };
    return check(finding.line) || check(finding.line - 1);
}

void
ListRules()
{
    std::printf("wave_analyze rule catalog:\n");
    for (const Rule& r : kRules) {
        std::printf("  %s %-22s %s\n", r.id, r.name, r.summary);
    }
}

void
EmitText(const std::vector<Finding>& reported, std::size_t file_count,
         int suppressed)
{
    for (const Finding& fd : reported) {
        std::printf("%s:%d: %s: %s\n", fd.path.c_str(), fd.line,
                    fd.rule.c_str(), fd.message.c_str());
    }
    if (reported.empty()) {
        std::printf("wave_analyze: OK (%zu files, %d suppressed)\n",
                    file_count, suppressed);
        return;
    }
    std::printf("wave_analyze: %zu finding%s (%d suppressed)\n",
                reported.size(), reported.size() == 1 ? "" : "s",
                suppressed);
}

namespace {

std::string
JsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace

void
EmitSarif(const std::vector<Finding>& reported)
{
    std::printf(
        "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"wave_analyze\",\n"
        "          \"rules\": [");
    bool first = true;
    for (const Rule& r : kRules) {
        std::printf(
            "%s\n            {\"id\": \"%s\", \"name\": \"%s\", "
            "\"shortDescription\": {\"text\": \"%s\"}}",
            first ? "" : ",", r.id, JsonEscape(r.name).c_str(),
            JsonEscape(r.summary).c_str());
        first = false;
    }
    std::printf(
        "\n          ]\n"
        "        }\n"
        "      },\n"
        "      \"results\": [");
    first = true;
    for (const Finding& fd : reported) {
        std::printf(
            "%s\n        {\"ruleId\": \"%s\", \"level\": \"error\", "
            "\"message\": {\"text\": \"%s\"}, \"locations\": "
            "[{\"physicalLocation\": {\"artifactLocation\": "
            "{\"uri\": \"%s\"}, \"region\": {\"startLine\": %d}}}]}",
            first ? "" : ",", fd.rule.c_str(),
            JsonEscape(fd.message).c_str(),
            JsonEscape(fd.path).c_str(), fd.line > 0 ? fd.line : 1);
        first = false;
    }
    std::printf(
        "\n      ]\n"
        "    }\n"
        "  ]\n"
        "}\n");
}

}  // namespace wa
