/**
 * @file
 * Task-coroutine signature parsing and the tree-wide lifetime-contract
 * registry behind the W201/W203 rules. Contracts are matched by
 * function name: an annotation on a header declaration covers
 * same-name out-of-line definitions tree-wide.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace wa {

/** Do explicit parameters include a reference/pointer/view type? */
bool ParamsHaveRefs(const std::string& params);

/**
 * Finds every Task-returning function head in @p f and records, for
 * definitions, whether the body is a coroutine. Text-level: the head
 * must start a line (after optional inline/static/virtual/...), which
 * matches this codebase's return-type-first style; `Task<>` locals,
 * parameters, and `co_await q.Receive()` expressions do not parse as
 * heads and are skipped.
 */
std::vector<Coroutine> ParseCoroutines(const SourceFile& f);

/** Tree-wide name-keyed merge of coroutine lifetime contracts. */
struct ContractEntry {
    bool spawn_safe = false;
    bool caller_awaits = false;
    bool ref_params = false;  ///< any same-name site takes refs/this
    bool annotated = false;   ///< any same-name site carries a contract
};

using ContractRegistry = std::map<std::string, ContractEntry>;

void MergeContracts(const SourceFile& f, ContractRegistry& registry);

/**
 * 1-based lines of @p f whose wave-lifetime annotation is attached to
 * no parsed Task head — the W304 dead-annotation input. An annotation
 * is attached when it falls in some head's contract window
 * [sig_line-2, head_end].
 */
std::vector<int> DeadLifetimeLines(const SourceFile& f);

}  // namespace wa
