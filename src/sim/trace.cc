// wave-domain: neutral
#include "sim/trace.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "sim/simulator.h"

namespace wave::sim {

namespace {

/** Trace configuration; constructing it reads WAVE_TRACE. */
struct TraceState {
    TraceState()
    {
        const char* env = std::getenv("WAVE_TRACE");
        if (env == nullptr) return;
        const std::string spec(env);
        std::size_t start = 0;
        while (start <= spec.size()) {
            std::size_t comma = spec.find(',', start);
            if (comma == std::string::npos) comma = spec.size();
            const std::string category = spec.substr(start, comma - start);
            if (!category.empty()) Enable(category);
            start = comma + 1;
        }
    }

    void
    Enable(const std::string& category)
    {
        if (category == "all") {
            all = true;
        } else {
            enabled.insert(category);
        }
    }

    std::set<std::string> enabled;
    bool all = false;
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
Trace::Enable(const std::string& category)
{
    State().Enable(category);
}

void
Trace::Disable(const std::string& category)
{
    if (category == "all") {
        State().all = false;
    } else {
        State().enabled.erase(category);
    }
}

bool
Trace::Enabled(const std::string& category)
{
    const TraceState& state = State();
    return state.all || state.enabled.count(category) > 0;
}

void
Trace::Reset()
{
    State().enabled.clear();
    State().all = false;
}

void
Trace::Emit(const Simulator* sim, const std::string& category,
            const char* fmt, ...)
{
    State().emitted.fetch_add(1, std::memory_order_relaxed);
    std::string line;
    if (sim != nullptr) {
        Append(line, "%12llu: %s: ",
               static_cast<unsigned long long>(sim->Now().ns()),
               category.c_str());
    } else {
        Append(line, "           -: %s: ", category.c_str());
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
