/**
 * @file
 * Suppression by inline allow() comments and the two report emitters:
 * human text, and SARIF 2.1.0 for code-scanning upload.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "analyze/rules.h"
#include "analyze/source.h"

namespace wa {

/**
 * Inline `wave-analyze: allow(...)` on the line or the previous one.
 * When it suppresses, @p allow_line receives the 1-based line of the
 * allow comment itself (for dead-allow accounting).
 */
bool InlineSuppressed(const SourceFile& f, const Finding& finding,
                      int* allow_line);

void ListRules();

/** Prints the reported findings and a one-line summary. */
void EmitText(const std::vector<Finding>& reported,
              std::size_t file_count, int suppressed);

/** Prints the reported findings as SARIF 2.1.0, catalog included. */
void EmitSarif(const std::vector<Finding>& reported);

}  // namespace wa
