/**
 * @file
 * FNV-1a hashing for event-stream fingerprints.
 *
 * The determinism auditor folds every executed simulator event into a
 * rolling 64-bit FNV-1a hash; two runs of the same configuration must
 * end with the same fingerprint. FNV is chosen for the same reasons
 * trace checksummers usually choose it: cheap enough for the event hot
 * path, stateless (one word of state), and order-sensitive, so any
 * divergence in event execution order changes the final digest.
 */
// wave-domain: neutral
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace wave::check {

/** 64-bit FNV-1a offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/** 64-bit FNV-1a prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** kFnvPrimePowers[n] = kFnvPrime^n (mod 2^64), n = 0..8. */
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t n = 1; n < powers.size(); ++n) {
        powers[n] = powers[n - 1] * kFnvPrime;
    }
    return powers;
}();

/** Folds one byte into the running hash. */
constexpr std::uint64_t
FnvByte(std::uint64_t hash, std::uint8_t byte)
{
    return (hash ^ byte) * kFnvPrime;
}

/**
 * Folds a 64-bit word into the running hash, little-endian bytewise.
 *
 * Same bytes, same order, same result as eight FnvByte() rounds, but
 * folding a zero byte is a bare multiply, so the run of zero bytes
 * above the highest set one is a single multiply by a power of the
 * prime. A word with k significant bytes costs k + 1 dependent
 * multiplies instead of 8; simulated timestamps and sequence numbers
 * have three to five.
 */
constexpr std::uint64_t
FnvWord(std::uint64_t hash, std::uint64_t word)
{
    const int significant = (64 - std::countl_zero(word) + 7) / 8;
    for (int i = 0; i < significant; ++i) {
        hash = FnvByte(hash, static_cast<std::uint8_t>(word >> (i * 8)));
    }
    return hash * kFnvPrimePowers[static_cast<std::size_t>(8 - significant)];
}

}  // namespace wave::check
