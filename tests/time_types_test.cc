/**
 * @file
 * Tests for the strong-typed time system: TimeNs/DurationNs dimensional
 * algebra (sim/time.h) and the FreqGhz frequency wrapper
 * (machine/cycles.h).
 *
 * Half of the value of these types is what they *reject*. The
 * static_asserts below use the detection idiom to pin down, as a
 * compile-time regression test, that the dimensionally meaningless
 * expressions — point + point, point * scalar, a bare double as a
 * frequency — do not compile. If someone adds an operator that
 * re-opens one of those holes, this file fails to build.
 */
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "machine/cycles.h"
#include "sim/time.h"

namespace wave::sim {
namespace {

using machine::FreqGhz;
using namespace time_literals;

// --- detection idiom: does `A op B` compile? ---

template <typename A, typename B, typename = void>
struct CanAdd : std::false_type {};
template <typename A, typename B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanSubtract : std::false_type {};
template <typename A, typename B>
struct CanSubtract<
    A, B, std::void_t<decltype(std::declval<A>() - std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanMultiply : std::false_type {};
template <typename A, typename B>
struct CanMultiply<
    A, B, std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

// Points and durations are distinct dimensions.
static_assert(!CanAdd<TimeNs, TimeNs>::value,
              "adding two points in time is meaningless");
static_assert(!CanMultiply<TimeNs, int>::value,
              "scaling a point in time is meaningless");
static_assert(!CanMultiply<TimeNs, TimeNs>::value);
static_assert(CanAdd<TimeNs, DurationNs>::value);
static_assert(CanAdd<DurationNs, TimeNs>::value);
static_assert(CanSubtract<TimeNs, TimeNs>::value);
static_assert(std::is_same_v<decltype(TimeNs{} - TimeNs{}), DurationNs>);
static_assert(std::is_same_v<decltype(TimeNs{} + DurationNs{}), TimeNs>);
static_assert(std::is_same_v<decltype(DurationNs{} / DurationNs{1}),
                             std::uint64_t>);

// A bare integer is a duration, never a point.
static_assert(std::is_convertible_v<int, DurationNs>);
static_assert(!std::is_convertible_v<int, TimeNs>);
static_assert(!std::is_convertible_v<double, DurationNs>,
              "floating-point time must go through FromDouble()");
static_assert(!std::is_convertible_v<DurationNs, TimeNs>);
static_assert(!std::is_convertible_v<TimeNs, DurationNs>);
static_assert(!std::is_convertible_v<TimeNs, std::uint64_t>);
static_assert(!std::is_convertible_v<DurationNs, std::uint64_t>);

// A frequency is not a bare scalar or a speed ratio.
static_assert(!std::is_convertible_v<double, FreqGhz>);
static_assert(!std::is_convertible_v<FreqGhz, double>);

TEST(TimeTypes, PointDurationAlgebra)
{
    const TimeNs t0{1'000};
    const DurationNs d = 250;
    EXPECT_EQ((t0 + d).ns(), 1'250u);
    EXPECT_EQ((t0 - d).ns(), 750u);
    EXPECT_EQ((t0 + d) - t0, d);
    EXPECT_EQ(t0.SinceOrigin(), DurationNs{1'000});
    EXPECT_EQ(TimeNs{t0.SinceOrigin()}, t0);
}

TEST(TimeTypes, DurationArithmetic)
{
    DurationNs d = 100;
    d += 50;
    d -= 25;
    d *= 4;
    d /= 2;
    EXPECT_EQ(d.ns(), 250u);
    EXPECT_EQ((d * 2).ns(), 500u);
    EXPECT_EQ((2 * d).ns(), 500u);
    EXPECT_EQ((d / 5).ns(), 50u);
    EXPECT_EQ(d / DurationNs{100}, 2u);
    EXPECT_EQ((d % DurationNs{100}).ns(), 50u);
}

TEST(TimeTypes, LiteralsAndConstants)
{
    EXPECT_EQ(1_us, kMicrosecond);
    EXPECT_EQ(1_ms, kMillisecond);
    EXPECT_EQ(1_s, kSecond);
    EXPECT_EQ((3_ms).ns(), 3'000'000u);
    EXPECT_DOUBLE_EQ(ToUs(1500_ns), 1.5);
    EXPECT_DOUBLE_EQ(ToMs(2500_us), 2.5);
    EXPECT_DOUBLE_EQ(ToSec(500_ms), 0.5);
}

TEST(TimeTypes, DoubleBridgeTruncatesTowardZero)
{
    EXPECT_EQ(DurationNs::FromDouble(1.9).ns(), 1u);
    EXPECT_EQ(TimeNs::FromDouble(1.9).ns(), 1u);
    EXPECT_DOUBLE_EQ(DurationNs{7}.ToDouble(), 7.0);
}

TEST(TimeTypes, WrapsModulo64BitsLikeRawMath)
{
    // Subtracting a later point from an earlier one wraps, exactly as
    // the raw uint64 arithmetic it replaced — determinism fingerprints
    // depend on this.
    const TimeNs a{10};
    const TimeNs b{25};
    EXPECT_EQ((a - b).ns(), ~std::uint64_t{0} - 14);
}

TEST(CycleTypes, FrequencyRatio)
{
    EXPECT_DOUBLE_EQ(FreqGhz{3.0}.RatioTo(FreqGhz{3.5}), 3.0 / 3.5);
    EXPECT_GT(FreqGhz{3.5}, FreqGhz{3.0});
    EXPECT_LT(FreqGhz{2.45}, FreqGhz{3.0});
}

}  // namespace
}  // namespace wave::sim
