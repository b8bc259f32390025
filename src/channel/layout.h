/**
 * @file
 * Ring-buffer layout shared by the MMIO and DMA queue implementations.
 *
 * A queue is `capacity` fixed-size slots followed by a consumer-progress
 * counter on its own cache line. Each slot holds the entry payload plus
 * a trailing 64-bit *generation flag* — the Floem per-entry valid flag,
 * extended to a generation number so slots never need to be cleared:
 *
 *     slot for absolute index p lives at (p mod capacity);
 *     its flag is valid when it equals (p / capacity) + 1.
 *
 * The producer writes the payload first and the flag last, which is safe
 * over posted PCIe writes because they arrive in order. The consumer
 * never writes slots at all; it advertises progress by updating the
 * consumed counter every `sync_interval` entries (iPipe's lazy head
 * synchronization), which the producer reads only when the ring looks
 * full.
 *
 * Slots are line-aligned and, for payloads <= 56 bytes, fit a single
 * cache line, so a write-through host consumer fetches flag + payload in
 * one PCIe roundtrip.
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstddef>
#include <algorithm>
#include <bit>
#include <cstdint>

#include "pcie/config.h"
#include "sim/logging.h"

namespace wave::channel {

/** Static queue shape parameters. */
struct QueueConfig {
    /** Number of slots; must be a power of two. */
    std::size_t capacity = 64;

    /** Payload bytes per entry. */
    std::size_t payload_size = 48;

    /**
     * Consumer advertises progress every this many entries. Smaller
     * values cost more counter writes; larger values make the ring
     * appear full sooner under bursts.
     */
    std::size_t sync_interval = 16;
};

/** Computes byte offsets for a ring with the given config. */
class RingLayout {
  public:
    explicit RingLayout(const QueueConfig& config)
        : config_(config),
          slot_size_(AlignUp(config.payload_size + kFlagSize,
                             pcie::PcieConfig::kLineSize)),
          capacity_log2_(std::countr_zero(config.capacity))
    {
        WAVE_ASSERT(config.capacity > 0 &&
                        (config.capacity & (config.capacity - 1)) == 0,
                    "capacity must be a power of two");
        WAVE_ASSERT(config.payload_size > 0);
        WAVE_ASSERT(config.sync_interval > 0);
        // The default interval is tuned for larger rings; clamp for
        // small ones so progress is always advertised before a full lap.
        config_.sync_interval =
            std::min(config.sync_interval, config.capacity);
    }

    static constexpr std::size_t kFlagSize = 8;

    /** Total bytes of backing memory the ring needs. */
    std::size_t
    BytesNeeded() const
    {
        return slot_size_ * config_.capacity + pcie::PcieConfig::kLineSize;
    }

    std::size_t SlotSize() const { return slot_size_; }

    /** Offset of the payload of the slot for absolute index @p index. */
    std::size_t
    PayloadOffset(std::uint64_t index) const
    {
        return SlotIndex(index) * slot_size_;
    }

    /** Offset of the generation flag of the slot for @p index. */
    std::size_t
    FlagOffset(std::uint64_t index) const
    {
        return PayloadOffset(index) + config_.payload_size;
    }

    /** Offset of the consumer-progress counter (own line). */
    std::size_t
    ConsumedCounterOffset() const
    {
        return slot_size_ * config_.capacity;
    }

    /** Ring slot for an absolute index. */
    std::size_t
    SlotIndex(std::uint64_t index) const
    {
        return static_cast<std::size_t>(index &
                                        (config_.capacity - 1));
    }

    /** Generation flag value that marks @p index valid. */
    std::uint64_t
    GenerationOf(std::uint64_t index) const
    {
        return (index >> capacity_log2_) + 1;
    }

    const QueueConfig& Config() const { return config_; }

  private:
    static std::size_t
    AlignUp(std::size_t v, std::size_t a)
    {
        return (v + a - 1) / a * a;
    }

    QueueConfig config_;
    std::size_t slot_size_;
    int capacity_log2_;  ///< capacity is a power of two
};

}  // namespace wave::channel
