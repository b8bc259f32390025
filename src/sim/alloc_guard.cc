// wave-domain: harness
#include "sim/alloc_guard.h"

#include <cstdlib>
#include <new>

namespace wave::sim {

namespace {

// Plain counters, not atomics: the binaries that link this library are
// single-threaded by the same design rule (W103) that the guarded hot
// loops obey.
// wave-analyze: allow(W303 process-wide allocation counters behind global operator new/delete; harness observability only, never read by model code)
std::uint64_t g_allocations = 0;
std::uint64_t g_frees = 0;  // wave-analyze: allow(W303 as g_allocations)
std::uint64_t g_bytes = 0;  // wave-analyze: allow(W303 as g_allocations)

void*
CountedAlloc(std::size_t n)
{
    ++g_allocations;
    g_bytes += n;
    if (void* p = std::malloc(n != 0 ? n : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void
CountedFree(void* p) noexcept
{
    if (p != nullptr) {
        ++g_frees;
    }
    std::free(p);
}

}  // namespace

AllocCounters
AllocSnapshot()
{
    return AllocCounters{g_allocations, g_frees, g_bytes};
}

}  // namespace wave::sim

// Replacing the global allocation functions is sanctioned by the
// standard; these definitions win over the library defaults for every
// translation unit in the binary. Alignment beyond
// __STDCPP_DEFAULT_NEW_ALIGNMENT__ is not requested by any type in
// this tree, so the plain forms suffice; the aligned forms delegate to
// aligned_alloc to stay correct if that ever changes.

void*
operator new(std::size_t n)
{
    return wave::sim::CountedAlloc(n);
}

void*
operator new[](std::size_t n)
{
    return wave::sim::CountedAlloc(n);
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    ++wave::sim::g_allocations;
    wave::sim::g_bytes += n;
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    return operator new(n, align);
}

void
operator delete(void* p) noexcept
{
    wave::sim::CountedFree(p);
}

void
operator delete[](void* p) noexcept
{
    wave::sim::CountedFree(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    wave::sim::CountedFree(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    wave::sim::CountedFree(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    wave::sim::CountedFree(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    wave::sim::CountedFree(p);
}
