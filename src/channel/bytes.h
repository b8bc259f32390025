/**
 * @file
 * POD <-> byte-vector serialization helpers for queue payloads.
 *
 * Queue payloads are fixed-size byte vectors; system software exchanges
 * trivially-copyable message structs. These helpers keep the
 * reinterpretation in one audited place.
 */
// wave-domain: pcie
// wave-hot
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/logging.h"

namespace wave::channel {

/** Serializes a trivially-copyable struct into a payload of given size. */
template <typename T>
std::vector<std::byte>
ToBytes(const T& value, std::size_t payload_size)
{
    static_assert(std::is_trivially_copyable_v<T>);
    WAVE_ASSERT(sizeof(T) <= payload_size,
                "message type (%zu bytes) exceeds payload size %zu",
                sizeof(T), payload_size);
    // wave-analyze: allow(W101 serialization mints the caller-owned payload by contract; hot loops reuse buffers via the PollInto/PushBatch APIs instead)
    std::vector<std::byte> out(payload_size);
    std::memcpy(out.data(), &value, sizeof(T));
    return out;
}

/** Deserializes a struct from a queue payload. */
template <typename T>
T
FromBytes(const std::vector<std::byte>& bytes)
{
    static_assert(std::is_trivially_copyable_v<T>);
    WAVE_ASSERT(sizeof(T) <= bytes.size());
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
}

}  // namespace wave::channel
