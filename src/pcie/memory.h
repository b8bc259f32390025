/**
 * @file
 * Raw byte-addressable memory region.
 *
 * Backing store for both host DRAM buffers and SmartNIC SoC DRAM. The
 * region itself has no timing; timing comes from the access paths laid
 * over it (MmioMapping, DmaEngine, or zero-cost local access).
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "sim/logging.h"

namespace wave::pcie {

/** A contiguous, byte-addressable memory region. */
class MemoryRegion {
  public:
    explicit MemoryRegion(std::size_t size) : data_(size) {}

    std::size_t Size() const { return data_.size(); }

    /**
     * Extends the region to @p size bytes, which must not be smaller
     * than Size(). Existing bytes keep their values and the new bytes
     * read as zero. Setup-time only: offsets stay valid, pointers into
     * the old storage do not.
     */
    void
    Grow(std::size_t size)
    {
        WAVE_ASSERT(size >= data_.size(), "region of %zu bytes cannot shrink "
                    "to %zu", data_.size(), size);
        data_.resize(size);
    }

    /** Raw copy out of the region (no simulated cost). */
    void
    ReadRaw(std::size_t offset, void* dst, std::size_t n) const
    {
        CheckRange(offset, n);
        std::memcpy(dst, data_.data() + offset, n);
    }

    /** Raw copy into the region (no simulated cost). */
    void
    WriteRaw(std::size_t offset, const void* src, std::size_t n)
    {
        CheckRange(offset, n);
        std::memcpy(data_.data() + offset, src, n);
    }

  private:
    void
    CheckRange(std::size_t offset, std::size_t n) const
    {
        WAVE_ASSERT(offset + n <= data_.size(),
                    "access [%zu, %zu) outside region of %zu bytes", offset,
                    offset + n, data_.size());
    }

    std::vector<std::byte> data_;
};

}  // namespace wave::pcie
