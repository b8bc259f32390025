/**
 * @file
 * Category-based debug tracing, in the spirit of gem5's DPRINTF.
 *
 * Components emit timestamped trace lines under named categories
 * ("queue", "ghost", "txn", ...). Categories are disabled by default
 * and enabled programmatically or through the WAVE_TRACE environment
 * variable (comma-separated list, or "all"):
 *
 *     WAVE_TRACE=ghost,txn ./build/examples/quickstart
 *
 * Tracing compiles in release builds but short-circuits on a single
 * branch when the category is off, so instrumented paths stay cheap.
 *
 * Simulators on separate threads may trace at once: the environment is
 * read once, under the thread-safe initialisation of the trace state,
 * and each line reaches stderr in a single write. Enable, Disable and
 * Reset must not run while another thread traces.
 */
// wave-domain: neutral
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace wave::sim {

class Simulator;

/** Global trace configuration and sink. */
class Trace {
  public:
    /** Enables one category ("all" enables everything). */
    static void Enable(const std::string& category);

    /** Disables one category. */
    static void Disable(const std::string& category);

    /** True if the category (or "all") is enabled. */
    static bool Enabled(const std::string& category);

    /** Removes every enabled category (tests use this). */
    static void Reset();

    /**
     * Emits one line: "<time>: <category>: <message>". The simulator
     * pointer supplies the timestamp; pass nullptr outside a sim.
     */
    static void Emit(const Simulator* sim, const std::string& category,
                     const char* fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /** Number of lines emitted (tests assert on this). */
    static std::uint64_t EmittedCount();
};

/**
 * Trace macro: evaluates its arguments only when the category is on.
 *
 *     WAVE_TRACE_EVENT(&sim_, "ghost", "commit tid=%d core=%d", t, c);
 */
#define WAVE_TRACE_EVENT(sim_ptr, category, ...)                        \
    do {                                                                \
        if (::wave::sim::Trace::Enabled(category)) {                    \
            ::wave::sim::Trace::Emit(sim_ptr, category, __VA_ARGS__);   \
        }                                                               \
    } while (0)

}  // namespace wave::sim
