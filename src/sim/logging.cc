// wave-domain: neutral
#include "sim/logging.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace wave::sim {

namespace {

void
VReport(const char* level, const char* fmt, va_list args)
{
    std::fprintf(stderr, "[%s] ", level);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

}  // namespace

void
AssertFail(const char* condition, const char* file, int line,
           const char* fmt, ...)
{
    std::fprintf(stderr, "[panic] assertion failed: %s (%s:%d) ", condition,
                 file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    std::abort();
}

void
Panic(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VReport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
Fatal(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VReport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
Warn(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    VReport("warn", fmt, args);
    va_end(args);
}

}  // namespace wave::sim
