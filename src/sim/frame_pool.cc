// wave-domain: neutral
// wave-hot
#include "sim/frame_pool.h"

#include <new>

namespace wave::sim::detail {

namespace {

/** Size-class granularity; also the header-preserved alignment. */
constexpr std::size_t kGranularity = 64;

/** Largest pooled block (frame + header); bigger frames hit the heap. */
constexpr std::size_t kMaxPooledBytes = 2048;

constexpr std::size_t kNumClasses = kMaxPooledBytes / kGranularity;

/**
 * Every block starts with a 16-byte header holding its size class, so
 * the unsized operator delete can route the block back to the right
 * free list. 16 bytes keeps the frame at the default new alignment.
 */
constexpr std::size_t kHeaderBytes = 16;

struct FreeNode {
    FreeNode* next;
};

// Per-thread, zero-initialized and trivially destructible, so the
// frame fast paths below pay no TLS-initialisation guard.
// wave-analyze: allow(W303 per-thread frame-recycling free lists behind the promise-level operator new/delete; each thread recycles only its own blocks, so concurrent deployments on separate threads share nothing here)
thread_local FreeNode* t_free_lists[kNumClasses];
thread_local std::uint64_t t_reuses = 0;  // wave-analyze: allow(W303 per-thread, as t_free_lists)
thread_local std::uint64_t t_oversized = 0;  // wave-analyze: allow(W303 per-thread, as t_free_lists)

/**
 * Hands the thread's pooled blocks back to the heap when the thread
 * exits. Only the fresh-heap path touches it (its first use on a
 * thread registers the destructor), so its TLS guard never runs on a
 * recycled alloc or on a free.
 */
struct PoolRelease {
    PoolRelease() = default;
    PoolRelease(const PoolRelease&) = delete;
    PoolRelease& operator=(const PoolRelease&) = delete;

    ~PoolRelease()
    {
        for (FreeNode*& head : t_free_lists) {
            while (FreeNode* node = head) {
                head = node->next;
                ::operator delete(node);
            }
        }
    }

    /** Marks the object used, so this thread runs the destructor. */
    void Arm() {}
};

thread_local PoolRelease t_release;  // wave-analyze: allow(W303 per-thread, as t_free_lists)

void*
Stamp(void* raw, std::size_t cls)
{
    *static_cast<std::size_t*>(raw) = cls;
    return static_cast<char*>(raw) + kHeaderBytes;
}

}  // namespace

void*
AllocFrame(std::size_t bytes)
{
    const std::size_t total = bytes + kHeaderBytes;
    if (total > kMaxPooledBytes) {
        ++t_oversized;
        return Stamp(::operator new(total), kNumClasses);
    }
    const std::size_t cls = (total + kGranularity - 1) / kGranularity - 1;
    if (FreeNode* node = t_free_lists[cls]) {
        t_free_lists[cls] = node->next;
        ++t_reuses;
        return Stamp(node, cls);
    }
    t_release.Arm();  // this block may end up pooled on this thread
    return Stamp(::operator new((cls + 1) * kGranularity), cls);
}

void
FreeFrame(void* frame) noexcept
{
    if (frame == nullptr) return;
    void* raw = static_cast<char*>(frame) - kHeaderBytes;
    const std::size_t cls = *static_cast<std::size_t*>(raw);
    if (cls >= kNumClasses) {
        ::operator delete(raw);
        return;
    }
    auto* node = static_cast<FreeNode*>(raw);
    node->next = t_free_lists[cls];
    t_free_lists[cls] = node;
}

std::uint64_t
FramePoolReuses()
{
    return t_reuses;
}

std::uint64_t
FramePoolOversized()
{
    return t_oversized;
}

}  // namespace wave::sim::detail
