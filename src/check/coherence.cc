// wave-domain: neutral
#include "check/coherence.h"

#include <cstdio>

#include "check/fnv.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace wave::check {

const char*
DomainName(Domain domain)
{
    switch (domain) {
        case Domain::kHost: return "host";
        case Domain::kNic: return "nic";
        case Domain::kDma: return "dma";
    }
    return "?";
}

namespace {

const char*
KindName(ViolationKind kind)
{
    switch (kind) {
        case ViolationKind::kStaleCachedRead: return "stale-cached-read";
        case ViolationKind::kUnflushedWcRead: return "unflushed-wc-read";
    }
    return "?";
}

}  // namespace

std::string
Violation::Describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s on line %zu: %s read %s[%zu,+%zu)@%llu ns races "
                  "%s write %s[%zu,+%zu)@%llu ns",
                  KindName(kind), line, DomainName(read.domain),
                  read.label, read.offset, read.size,
                  static_cast<unsigned long long>(read.when.ns()),
                  DomainName(write.domain), write.label, write.offset,
                  write.size,
                  static_cast<unsigned long long>(write.when.ns()));
    return buf;
}

void
CoherenceChecker::RegisterWindow(const void* region, std::size_t offset,
                                 std::size_t n)
{
    if (n == 0) return;
    lines_.Of(region).Cover(LineOf(offset), LineOf(offset + n - 1));
}

void
CoherenceChecker::OnWrite(const void* region, Domain domain,
                          std::size_t offset, std::size_t n,
                          const char* site)
{
    stats_.writes += 1;
    if (domain == Domain::kHost || n == 0) return;
    RecordRemoteWrite(region, offset, n,
                      AccessSite{site, domain, offset, n, sim_.Now()});
}

void
CoherenceChecker::OnDmaWrite(const void* region, std::size_t offset,
                             std::size_t n, const char* site)
{
    stats_.dma_writes += 1;
    if (n == 0) return;
    RecordRemoteWrite(
        region, offset, n,
        AccessSite{site, Domain::kDma, offset, n, sim_.Now()});
}

void
CoherenceChecker::RecordRemoteWrite(const void* region, std::size_t offset,
                                    std::size_t n, const AccessSite& site)
{
    Window& window = lines_.Of(region);
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    for (std::size_t line = first; line <= last; ++line) {
        LineState& state = window.At(line);
        state.last_remote_write = site;
        if (state.host_cached) {
            state.stale = true;
        }
    }
}

void
CoherenceChecker::OnRead(const void* region, Domain domain,
                         std::size_t offset, std::size_t n,
                         bool from_host_cache, bool tolerate_stale,
                         const char* site)
{
    stats_.reads += 1;
    // Neither check can fire on a stale-tolerant read outside the host
    // domain, such as every agent flag poll: the stale-cache check needs
    // a host read and the unflushed-WC check a read that does not
    // tolerate staleness.
    if (n == 0 || (domain != Domain::kHost && tolerate_stale)) return;
    Window* window = lines_.Find(region);
    if (window == nullptr) return;
    const AccessSite read{site, domain, offset, n, sim_.Now()};
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    for (std::size_t line = first; line <= last; ++line) {
        LineState* state = window->Find(line);
        if (state == nullptr) continue;
        if (domain == Domain::kHost && from_host_cache && state->stale) {
            if (tolerate_stale) {
                stats_.tolerated_stale_reads += 1;
            } else {
                Report(ViolationKind::kStaleCachedRead, line, read,
                       state->last_remote_write);
            }
        }
        if (domain != Domain::kHost && state->wc_pending &&
            !tolerate_stale) {
            Report(ViolationKind::kUnflushedWcRead, line, read,
                   state->last_wc_store);
        }
    }
}

void
CoherenceChecker::OnCacheFill(const void* region, std::size_t line)
{
    stats_.cache_fills += 1;
    LineState& state = lines_.Of(region).At(line);
    state.host_cached = true;
    state.stale = false;
}

void
CoherenceChecker::OnCacheDrop(const void* region, std::size_t line)
{
    stats_.cache_drops += 1;
    Window* window = lines_.Find(region);
    LineState* state = window != nullptr ? window->Find(line) : nullptr;
    if (state == nullptr) return;
    state->host_cached = false;
    state->stale = false;
}

void
CoherenceChecker::OnWcBuffered(const void* region, std::size_t offset,
                               std::size_t n, const char* site)
{
    stats_.wc_buffered += 1;
    if (n == 0) return;
    Window& window = lines_.Of(region);
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    for (std::size_t line = first; line <= last; ++line) {
        LineState& state = window.At(line);
        state.wc_pending = true;
        state.last_wc_store =
            AccessSite{site, Domain::kHost, offset, n, sim_.Now()};
    }
}

void
CoherenceChecker::OnWcDrained(const void* region, std::size_t offset,
                              std::size_t n)
{
    stats_.wc_drains += 1;
    if (n == 0) return;
    Window* window = lines_.Find(region);
    if (window == nullptr) return;
    const std::size_t first = LineOf(offset);
    const std::size_t last = LineOf(offset + n - 1);
    for (std::size_t line = first; line <= last; ++line) {
        LineState* state = window->Find(line);
        if (state != nullptr) {
            state->wc_pending = false;
        }
    }
}

void
CoherenceChecker::OnOrderingPoint(const char* /*what*/)
{
    stats_.ordering_points += 1;
}

void
CoherenceChecker::Report(ViolationKind kind, std::size_t line,
                         const AccessSite& read, const AccessSite& write)
{
    // One report per unique (kind, line, write event, read site): a
    // polling loop that re-reads the same stale line should not flood
    // the log with hundreds of copies of the same race.
    std::uint64_t key = kFnvOffsetBasis;
    key = FnvByte(key, static_cast<std::uint8_t>(kind));
    key = FnvWord(key, line);
    key = FnvWord(key, write.when.ns());
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(write.label));
    key = FnvWord(key, reinterpret_cast<std::uintptr_t>(read.label));
    if (!reported_.insert(key).second) return;

    violations_.push_back(Violation{kind, line, read, write});
    const std::string what = violations_.back().Describe();
    if (fail_fast_) {
        sim::Panic("coherence violation: %s", what.c_str());
    }
    sim::Warn("coherence violation: %s", what.c_str());
}

void
CoherenceChecker::Clear()
{
    lines_.ForEach([](Window& window) { window.Reset(); });
    violations_.clear();
    reported_.clear();
    stats_ = CheckerStats{};
}

}  // namespace wave::check
