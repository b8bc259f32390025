// wave-domain: neutral
#include "sim/trace.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "sim/simulator.h"

namespace wave::sim {

namespace {

/** Category names, indexed by TraceCategory. */
constexpr const char* kNames[] = {"ghost", "watchdog", "supervisor"};
static_assert(std::size(kNames) ==
              1 + static_cast<std::size_t>(TraceCategory::kSupervisor));

std::uint32_t
Bit(TraceCategory category)
{
    return 1u << static_cast<unsigned>(category);
}

/** Enables the categories @p spec names (see Trace::EnableNamed). */
void
EnableNamedIn(std::uint32_t& mask, const std::string& spec)
{
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos) comma = spec.size();
        const std::string name = spec.substr(start, comma - start);
        start = comma + 1;
        if (name.empty()) continue;
        std::uint32_t bits = name == "all" ? (1u << std::size(kNames)) - 1 : 0;
        for (std::size_t i = 0; i < std::size(kNames); ++i) {
            if (name == kNames[i]) bits |= 1u << i;
        }
        if (bits == 0) {
            std::string known;
            for (const char* n : kNames) known.append(n).append(", ");
            std::fprintf(stderr,
                         "WAVE_TRACE: ignoring unknown category \"%s\" "
                         "(known: %sall)\n",
                         name.c_str(), known.c_str());
        }
        mask |= bits;
    }
}

/** Trace configuration; constructing it reads WAVE_TRACE. */
struct TraceState {
    TraceState()
    {
        if (const char* env = std::getenv("WAVE_TRACE")) {
            EnableNamedIn(mask, env);
        }
    }

    std::uint32_t mask = 0;  ///< one bit per enabled TraceCategory
    std::atomic<std::uint64_t> emitted{0};
};

TraceState&
State()
{
    // Function-local static initialisation is thread-safe, so the
    // environment is parsed exactly once, whichever thread asks first.
    // wave-analyze: allow(W303 trace-config singleton: parsed once from WAVE_TRACE, changed by Enable() only before the simulations run, never part of the fingerprinted model state; the line counter is atomic)
    static TraceState state;
    return state;
}

/** Appends printf-style output to @p out. */
void
AppendV(std::string& out, const char* fmt, va_list args)
{
    va_list sized;
    va_copy(sized, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, sized);
    va_end(sized);
    if (n <= 0) return;
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(n));
}

void
Append(std::string& out, const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    AppendV(out, fmt, args);
    va_end(args);
}

}  // namespace

void
Trace::Enable(TraceCategory category)
{
    State().mask |= Bit(category);
}

void
Trace::Disable(TraceCategory category)
{
    State().mask &= ~Bit(category);
}

bool
Trace::Enabled(TraceCategory category)
{
    return (State().mask & Bit(category)) != 0;
}

void
Trace::EnableNamed(const std::string& spec)
{
    EnableNamedIn(State().mask, spec);
}

void
Trace::Reset()
{
    State().mask = 0;
}

void
Trace::Emit(const Simulator* sim, TraceCategory category, const char* fmt,
            ...)
{
    State().emitted.fetch_add(1, std::memory_order_relaxed);
    const char* name = kNames[static_cast<std::size_t>(category)];
    std::string line;
    if (sim != nullptr) {
        Append(line, "%12llu: %s: ",
               static_cast<unsigned long long>(sim->Now().ns()), name);
    } else {
        Append(line, "           -: %s: ", name);
    }
    va_list args;
    va_start(args, fmt);
    AppendV(line, fmt, args);
    va_end(args);
    line.push_back('\n');
    // One stdio call per line, so lines from simulators on other
    // threads never interleave with this one.
    std::fwrite(line.data(), 1, line.size(), stderr);
}

std::uint64_t
Trace::EmittedCount()
{
    return State().emitted.load(std::memory_order_relaxed);
}

}  // namespace wave::sim
