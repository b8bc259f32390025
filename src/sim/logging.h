/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * Panic() is for internal invariant violations (simulator bugs): it prints
 * and aborts. Fatal() is for user/configuration errors: it prints and exits
 * with status 1. Warn() reports a condition without stopping.
 */
// wave-domain: neutral
#pragma once

#include <cstdarg>
#include <string>

namespace wave::sim {

/** Aborts with a formatted message. Use for internal invariant failures. */
[[noreturn]] void Panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exits(1) with a formatted message. Use for configuration errors. */
[[noreturn]] void Fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Prints a warning to stderr; execution continues. */
void Warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Implementation detail of WAVE_ASSERT; prints and aborts. */
[[noreturn]] void AssertFail(const char* condition, const char* file,
                             int line, const char* fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * Panics if @p condition is false. Optional printf-style message.
 *
 * Kept as a macro so the failing expression text appears in the message.
 * The `"" __VA_ARGS__` splice passes an empty format string when no
 * message is given, which -Wformat-zero-length would flag at every
 * expansion site; the pragmas silence exactly that, keeping builds
 * clean under -Wall -Wextra with warnings-as-errors.
 */
#define WAVE_ASSERT(condition, ...)                                   \
    do {                                                              \
        if (!(condition)) {                                           \
            _Pragma("GCC diagnostic push")                            \
            _Pragma("GCC diagnostic ignored \"-Wformat-zero-length\"")\
            ::wave::sim::AssertFail(#condition, __FILE__, __LINE__,   \
                                    "" __VA_ARGS__);                  \
            _Pragma("GCC diagnostic pop")                             \
        }                                                             \
    } while (0)

}  // namespace wave::sim
