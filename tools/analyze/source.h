/**
 * @file
 * Source model for wave_analyze: comment/string-aware line splitting,
 * the per-file annotation state (wave-domain, wave-hot regions, inline
 * allow() comments), and the small text-parsing helpers every rule
 * shares.
 *
 * The analyzer is deliberately libclang-free (a token/declaration-
 * level checker in the sparse tradition); everything in this header
 * operates on a per-line split of the file into a *code* channel
 * (strings blanked, comments removed) and a *comment* channel.
 */
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace wa {

enum class Domain { kUnknown, kHost, kNic, kPcie, kNeutral, kHarness };

const char* DomainName(Domain d);
std::optional<Domain> ParseDomain(const std::string& name);

/** May a file in domain @p from include a file in domain @p to? */
bool MayInclude(Domain from, Domain to);

/** One source line split into code and comment text. */
struct SplitLine {
    std::string code;     ///< strings blanked, comments removed
    std::string comment;  ///< contents of // and /* */ comments
};

/**
 * Comment/string-aware line splitter. Block-comment state carries
 * across lines; string contents are blanked from the code channel so
 * a "//" inside a literal is not mistaken for a comment — and so an
 * allow() spelled inside a string literal never suppresses anything.
 */
class LineSplitter {
  public:
    SplitLine Split(const std::string& line);

  private:
    bool in_block_comment_ = false;
    bool in_string_ = false;
    char quote_ = '"';
};

/** Argument-lifetime contract of a Task coroutine (W201/W203). */
enum class Contract { kNone, kCallerAwaits, kSpawnSafe, kMalformed };

/** One parsed Task-returning function signature (and body facts). */
struct Coroutine {
    std::string name;       ///< last identifier component ("PollInto")
    std::string full_name;  ///< as written ("HostToNicChannel::PollInto")
    bool qualified = false;    ///< Cls::Name definition → implicit this
    bool ref_params = false;   ///< params include & / * / view types
    bool is_definition = false;
    bool is_coroutine = false;  ///< body contains co_await/return/yield
    int sig_line = 0;           ///< 1-based first line of the head
    int head_end = 0;           ///< 1-based line of the '{' or ';'
    Contract contract = Contract::kNone;
    std::string contract_text;  ///< raw annotation arg (for diagnostics)
};

/** One inline `wave-analyze: allow(...)` comment (for W304). */
struct AllowSite {
    int line = 0;               ///< 1-based line of the comment
    std::vector<std::string> rules;  ///< rule ids the allow lists
};

struct SourceFile {
    std::string path;          ///< reported path
    std::vector<std::string> raw;
    std::vector<SplitLine> lines;
    Domain domain = Domain::kUnknown;
    int domain_line = 0;
    /**
     * Per-line hot-region id, parallel to `lines`: 0 = not hot, >0 =
     * id of the `// wave-hot` region the line belongs to. A bare
     * file-scope `// wave-hot` puts every line in one region.
     */
    std::vector<int> hot;
    /** Task-returning functions parsed from this file (W201/W203). */
    std::vector<Coroutine> coroutines;
    /** Every inline allow() comment, for the W304 dead-allow check. */
    std::vector<AllowSite> allows;
    /** 1-based lines carrying a wave-lifetime(...) annotation. */
    std::vector<int> lifetime_lines;

    bool IsHot(int line_1based) const
    {
        return line_1based >= 1 &&
               line_1based <= static_cast<int>(hot.size()) &&
               hot[static_cast<std::size_t>(line_1based - 1)] > 0;
    }
};

/** Parses file content already in memory (the analyzer unit tests). */
SourceFile ParseSource(const std::string& report_path,
                       const std::string& content);

/** Loads and parses a file from disk; nullopt on I/O error. */
std::optional<SourceFile> LoadFile(const std::filesystem::path& fullpath,
                                   const std::string& report_path);

// --- shared text helpers ----------------------------------------------

/** Net '(' minus ')' on the code channel of a string. */
int ParenBalance(const std::string& s);

/** Net '{' minus '}' on the code channel of a string. */
int BraceBalance(const std::string& s);

/** Argument text of a call: from after '(' to its match (same line). */
std::string CallArgument(const std::string& code, std::size_t open_paren);

/**
 * Argument text of a call whose parentheses may span lines: joins the
 * code channel (newline-separated) from @p line at @p open_col to the
 * matching close paren. Bounded; returns what it has on imbalance.
 */
std::string JoinedCallArgument(const SourceFile& f, std::size_t line,
                               std::size_t open_col);

bool PathHas(const std::string& path, const std::string& needle);
bool PathEndsWith(const std::string& path, const std::string& tail);

}  // namespace wa
