/**
 * @file
 * The rule families: W00x clock-domain structure, W10x hot-path
 * performance, W20x concurrency readiness, the W303 mutable-global
 * census and the lifetime leg of W304. Each rule sees one SourceFile at
 * a time (plus the tree-wide coroutine-contract registry).
 */
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analyze/coroutines.h"
#include "analyze/rules.h"
#include "analyze/source.h"

namespace wa {

class FileRules {
  public:
    explicit FileRules(std::filesystem::path root) : root_(std::move(root))
    {
    }

    std::vector<Finding> findings;
    ContractRegistry registry;

    /** Analyzes one file as model code. */
    void Analyze(const SourceFile& f);

    /** Domain of an include target, loading and caching the file. */
    Domain DomainOfInclude(const std::string& include_path);

  private:
    void Add(const std::string& path, int line, const char* rule,
             std::string message);

    void CheckIncludes(const SourceFile& f);
    void CheckSymbols(const SourceFile& f);
    void CheckHooks(const SourceFile& f, bool in_check);
    void CheckStaleReasons(const SourceFile& f);
    void CheckWallClock(const SourceFile& f);
    void CheckTimeNarrowing(const SourceFile& f);
    void CheckEndpointCoverage(const SourceFile& f);
    void CheckHotPaths(const SourceFile& f);
    void CheckCoroutineContracts(const SourceFile& f);
    void CheckLambdaCoroutines(const SourceFile& f);
    void CheckSpawnSites(const SourceFile& f);
    void AnalyzeSpawnArgument(const SourceFile& f, int line_no,
                              const std::string& arg);
    void CheckUnstableIteration(const SourceFile& f);
    void CheckSuspendUnderGuard(const SourceFile& f);
    void CheckMutableGlobals(const SourceFile& f);

    static bool RegionReserves(const SourceFile& f, int region,
                               std::size_t upto);

    std::filesystem::path root_;
    std::map<std::string, Domain> include_domains_;
};

}  // namespace wa
