/**
 * @file
 * Category-based debug tracing, in the spirit of gem5's DPRINTF.
 *
 * Components emit timestamped trace lines under one of the categories
 * that have trace sites (TraceCategory). Categories are disabled by
 * default and enabled programmatically or through the WAVE_TRACE
 * environment variable (comma-separated names, or "all"):
 *
 *     WAVE_TRACE=ghost,watchdog ./build/examples/quickstart
 *
 * Tracing compiles in release builds but short-circuits on one bit
 * test when the category is off, so instrumented paths stay cheap.
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

/** The categories that have trace sites; each is one bit of the mask. */
enum class TraceCategory : std::uint8_t {
    kGhost,       ///< "ghost": kernel commits and preemptions
    kWatchdog,    ///< "watchdog": watchdog expiries
    kSupervisor,  ///< "supervisor": agent replacements
};

/** Global trace configuration and sink. */
class Trace {
  public:
    static void Enable(TraceCategory category);
    static void Disable(TraceCategory category);
    static bool Enabled(TraceCategory category);

    /**
     * Enables the categories a WAVE_TRACE value names: comma-separated
     * category names, or "all" for every category. An unknown name
     * enables nothing and prints one line to stderr.
     */
    static void EnableNamed(const std::string& spec);

    /** Disables every category (tests use this). */
    static void Reset();

    /**
     * Emits one line: "<time>: <category>: <message>". The simulator
     * pointer supplies the timestamp; pass nullptr outside a sim.
     */
    static void Emit(const Simulator* sim, TraceCategory category,
                     const char* fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /** Number of lines emitted (tests assert on this). */
    static std::uint64_t EmittedCount();
};

/**
 * Trace macro: evaluates its arguments only when the category is on.
 *
 *     WAVE_TRACE_EVENT(&sim_, sim::TraceCategory::kGhost,
 *                      "commit tid=%d core=%d", t, c);
 */
#define WAVE_TRACE_EVENT(sim_ptr, category, ...)                        \
    do {                                                                \
        if (::wave::sim::Trace::Enabled(category)) {                    \
            ::wave::sim::Trace::Emit(sim_ptr, category, __VA_ARGS__);   \
        }                                                               \
    } while (0)

}  // namespace wave::sim
