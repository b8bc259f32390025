/**
 * @file
 * Strong-typed simulated-time definitions shared by every Wave module.
 *
 * All simulated durations and timestamps are expressed in integer
 * nanoseconds. Nanosecond granularity is fine enough for the PCIe
 * microbenchmarks reproduced from the paper (the smallest constant is a
 * 50 ns posted MMIO write) and a 64-bit count overflows only after ~584
 * simulated years.
 *
 * TimeNs (a point on the simulated clock) and DurationNs (a distance
 * between two points) are distinct wrapper types with only the
 * operators that are dimensionally meaningful:
 *
 *   point  - point     -> duration        point  + point     REJECTED
 *   point  +- duration -> point           point  * anything  REJECTED
 *   duration +- duration -> duration
 *   duration * integer -> duration
 *   duration / integer -> duration
 *   duration / duration -> plain count    duration % duration -> duration
 *
 * The wrappers compile to the same uint64 arithmetic as the raw
 * aliases they replaced (all operations are constexpr, wrap modulo
 * 2^64, and hold exactly one uint64), so event streams are
 * bit-identical across the migration — determinism_test's fingerprint
 * goldens verify this.
 *
 * Bare integer literals convert implicitly to DurationNs (a naked
 * count of nanoseconds is a distance), but never to TimeNs: a point in
 * time must be constructed explicitly, so `Schedule(500, ...)` reads
 * naturally while `ScheduleAt(500, ...)` fails to compile until the
 * author writes `ScheduleAt(TimeNs{500}, ...)`.
 *
 * This header is the ONLY sanctioned double<->integer time bridge:
 * FromDouble()/ToDouble()/ToUs()/ToMs()/ToSec() centralise the
 * truncation and rounding rules. wave_analyze rule W008 rejects ad-hoc
 * static_casts between floating point and time outside this file.
 */
// wave-domain: neutral
// wave-hot
#pragma once

#include <cstdint>
#include <type_traits>

namespace wave::sim {

/** A duration in simulated nanoseconds (strong type over uint64). */
class DurationNs {
  public:
    constexpr DurationNs() = default;

    /**
     * Implicit from any integer type: a bare integer count of
     * nanoseconds is a distance, so duration parameters accept
     * literals (`Delay(500)`) without ceremony. Floating-point values
     * are rejected — use FromDouble() to make the truncation visible.
     */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    constexpr DurationNs(T ns) : ns_(static_cast<std::uint64_t>(ns))
    {
    }

    /** Raw nanosecond count, for serialisation/hashing/printing. */
    constexpr std::uint64_t ns() const { return ns_; }

    /** Sanctioned double -> duration bridge (truncates toward zero). */
    static constexpr DurationNs
    FromDouble(double ns)
    {
        return DurationNs(static_cast<std::uint64_t>(ns));
    }

    /** Sanctioned duration -> double bridge (exact up to 2^53 ns). */
    constexpr double ToDouble() const { return static_cast<double>(ns_); }

    constexpr DurationNs&
    operator+=(DurationNs o)
    {
        ns_ += o.ns_;
        return *this;
    }

    constexpr DurationNs&
    operator-=(DurationNs o)
    {
        ns_ -= o.ns_;
        return *this;
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    constexpr DurationNs&
    operator*=(T n)
    {
        ns_ *= static_cast<std::uint64_t>(n);
        return *this;
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    constexpr DurationNs&
    operator/=(T n)
    {
        ns_ /= static_cast<std::uint64_t>(n);
        return *this;
    }

    friend constexpr bool
    operator==(DurationNs a, DurationNs b)
    {
        return a.ns_ == b.ns_;
    }

    friend constexpr bool
    operator!=(DurationNs a, DurationNs b)
    {
        return a.ns_ != b.ns_;
    }

    friend constexpr bool
    operator<(DurationNs a, DurationNs b)
    {
        return a.ns_ < b.ns_;
    }

    friend constexpr bool
    operator<=(DurationNs a, DurationNs b)
    {
        return a.ns_ <= b.ns_;
    }

    friend constexpr bool
    operator>(DurationNs a, DurationNs b)
    {
        return a.ns_ > b.ns_;
    }

    friend constexpr bool
    operator>=(DurationNs a, DurationNs b)
    {
        return a.ns_ >= b.ns_;
    }

  private:
    std::uint64_t ns_ = 0;
};

constexpr DurationNs
operator+(DurationNs a, DurationNs b)
{
    return DurationNs(a.ns() + b.ns());
}

constexpr DurationNs
operator-(DurationNs a, DurationNs b)
{
    return DurationNs(a.ns() - b.ns());
}

template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
constexpr DurationNs
operator*(DurationNs d, T n)
{
    return DurationNs(d.ns() * static_cast<std::uint64_t>(n));
}

template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
constexpr DurationNs
operator*(T n, DurationNs d)
{
    return DurationNs(static_cast<std::uint64_t>(n) * d.ns());
}

template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
constexpr DurationNs
operator/(DurationNs d, T n)
{
    return DurationNs(d.ns() / static_cast<std::uint64_t>(n));
}

/** Ratio of two durations is a plain count, not a duration. */
constexpr std::uint64_t
operator/(DurationNs a, DurationNs b)
{
    return a.ns() / b.ns();
}

constexpr DurationNs
operator%(DurationNs a, DurationNs b)
{
    return DurationNs(a.ns() % b.ns());
}

/**
 * A point in simulated time, in nanoseconds since simulation start.
 *
 * Construction from a raw integer is explicit (a naked number is not
 * obviously a point), and no operator adds two points: only
 * point+-duration and point-point are defined.
 */
class TimeNs {
  public:
    constexpr TimeNs() = default;

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    constexpr explicit TimeNs(T ns) : ns_(static_cast<std::uint64_t>(ns))
    {
    }

    /** A point at the given offset from the simulation origin. */
    constexpr explicit TimeNs(DurationNs since_origin)
        : ns_(since_origin.ns())
    {
    }

    /** Raw nanosecond count, for serialisation/hashing/printing. */
    constexpr std::uint64_t ns() const { return ns_; }

    /** Distance from the simulation origin (t=0) to this point. */
    constexpr DurationNs
    SinceOrigin() const
    {
        return DurationNs(ns_);
    }

    /** Sanctioned double -> point bridge (truncates toward zero). */
    static constexpr TimeNs
    FromDouble(double ns)
    {
        return TimeNs(static_cast<std::uint64_t>(ns));
    }

    /** Sanctioned point -> double bridge (exact up to 2^53 ns). */
    constexpr double ToDouble() const { return static_cast<double>(ns_); }

    constexpr TimeNs&
    operator+=(DurationNs d)
    {
        ns_ += d.ns();
        return *this;
    }

    constexpr TimeNs&
    operator-=(DurationNs d)
    {
        ns_ -= d.ns();
        return *this;
    }

    friend constexpr bool
    operator==(TimeNs a, TimeNs b)
    {
        return a.ns_ == b.ns_;
    }

    friend constexpr bool
    operator!=(TimeNs a, TimeNs b)
    {
        return a.ns_ != b.ns_;
    }

    friend constexpr bool
    operator<(TimeNs a, TimeNs b)
    {
        return a.ns_ < b.ns_;
    }

    friend constexpr bool
    operator<=(TimeNs a, TimeNs b)
    {
        return a.ns_ <= b.ns_;
    }

    friend constexpr bool
    operator>(TimeNs a, TimeNs b)
    {
        return a.ns_ > b.ns_;
    }

    friend constexpr bool
    operator>=(TimeNs a, TimeNs b)
    {
        return a.ns_ >= b.ns_;
    }

  private:
    std::uint64_t ns_ = 0;
};

constexpr TimeNs
operator+(TimeNs t, DurationNs d)
{
    return TimeNs(t.ns() + d.ns());
}

constexpr TimeNs
operator+(DurationNs d, TimeNs t)
{
    return TimeNs(d.ns() + t.ns());
}

constexpr TimeNs
operator-(TimeNs t, DurationNs d)
{
    return TimeNs(t.ns() - d.ns());
}

/** Distance between two points. Wraps modulo 2^64 like the raw math. */
constexpr DurationNs
operator-(TimeNs a, TimeNs b)
{
    return DurationNs(a.ns() - b.ns());
}

/** Phase of a point within a repeating period (tick alignment). */
constexpr DurationNs
operator%(TimeNs t, DurationNs period)
{
    return DurationNs(t.ns() % period.ns());
}

namespace time_literals {

constexpr DurationNs operator""_ns(unsigned long long v)
{
    return DurationNs(v);
}
constexpr DurationNs operator""_us(unsigned long long v)
{
    return DurationNs(v * 1'000ull);
}
constexpr DurationNs operator""_ms(unsigned long long v)
{
    return DurationNs(v * 1'000'000ull);
}
constexpr DurationNs operator""_s(unsigned long long v)
{
    return DurationNs(v * 1'000'000'000ull);
}

}  // namespace time_literals

/** Convenience multipliers for non-literal arithmetic. */
constexpr DurationNs kMicrosecond{1'000};
constexpr DurationNs kMillisecond{1'000'000};
constexpr DurationNs kSecond{1'000'000'000};

/** Converts a nanosecond duration to fractional microseconds. */
constexpr double ToUs(DurationNs d) { return d.ToDouble() / 1e3; }

/** Converts a nanosecond duration to fractional milliseconds. */
constexpr double ToMs(DurationNs d) { return d.ToDouble() / 1e6; }

/** Converts a nanosecond duration to fractional seconds. */
constexpr double ToSec(DurationNs d) { return d.ToDouble() / 1e9; }

/** Offset-from-origin views of a time point, for reporting. */
constexpr double ToUs(TimeNs t) { return t.ToDouble() / 1e3; }
constexpr double ToMs(TimeNs t) { return t.ToDouble() / 1e6; }
constexpr double ToSec(TimeNs t) { return t.ToDouble() / 1e9; }

}  // namespace wave::sim
