/**
 * @file
 * Unit tests for the histogram and table utilities.
 */
#include <gtest/gtest.h>

#include "stats/histogram.h"
#include "stats/table.h"

namespace wave::stats {
namespace {

TEST(Histogram, EmptyHistogramIsZero)
{
    Histogram h;
    EXPECT_EQ(h.Count(), 0u);
    EXPECT_EQ(h.Min(), 0u);
    EXPECT_EQ(h.Max(), 0u);
    EXPECT_EQ(h.Mean(), 0.0);
    EXPECT_EQ(h.Percentile(0.99), 0u);
}

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 32; ++v) {
        h.Record(v);
    }
    EXPECT_EQ(h.Count(), 32u);
    EXPECT_EQ(h.Min(), 0u);
    EXPECT_EQ(h.Max(), 31u);
    EXPECT_EQ(h.Percentile(0.0), 0u);
    EXPECT_EQ(h.Percentile(1.0), 31u);
}

TEST(Histogram, MeanIsExact)
{
    Histogram h;
    h.Record(10);
    h.Record(20);
    h.Record(30);
    EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(Histogram, PercentilesHaveBoundedRelativeError)
{
    Histogram h;
    // Uniform ramp 1..100000.
    for (std::uint64_t v = 1; v <= 100'000; ++v) {
        h.Record(v);
    }
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double expected = q * 100'000;
        const double got = static_cast<double>(h.Percentile(q));
        EXPECT_NEAR(got, expected, expected * 0.04)
            << "quantile " << q;
    }
}

TEST(Histogram, RecordManyEquivalentToRepeatedRecord)
{
    Histogram a;
    Histogram b;
    a.RecordMany(500, 10);
    for (int i = 0; i < 10; ++i) b.Record(500);
    EXPECT_EQ(a.Count(), b.Count());
    EXPECT_EQ(a.Percentile(0.5), b.Percentile(0.5));
    EXPECT_DOUBLE_EQ(a.Mean(), b.Mean());
}

TEST(Histogram, MergeCombinesSamples)
{
    Histogram a;
    Histogram b;
    a.Record(100);
    b.Record(200);
    b.Record(300);
    a.Merge(b);
    EXPECT_EQ(a.Count(), 3u);
    EXPECT_EQ(a.Min(), 100u);
    EXPECT_EQ(a.Max(), 300u);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.Record(42);
    h.Reset();
    EXPECT_EQ(h.Count(), 0u);
    h.Record(7);
    EXPECT_EQ(h.Count(), 1u);
    EXPECT_EQ(h.Max(), 7u);
}

TEST(Histogram, HugeValuesDoNotOverflow)
{
    Histogram h;
    h.Record(1ull << 62);
    h.Record((1ull << 62) + 12345);
    EXPECT_EQ(h.Count(), 2u);
    const double rep = static_cast<double>(h.Percentile(0.5));
    const double expected = static_cast<double>(1ull << 62);
    EXPECT_NEAR(rep / expected, 1.0, 0.05);
}

TEST(Histogram, PercentileNeverFallsBelowMin)
{
    // 102 maps to a two-wide bucket whose midpoint representative (103)
    // differs from the sample; the low quantile used to report the raw
    // midpoint, which can sit outside the recorded range entirely.
    Histogram h;
    h.Record(102);
    EXPECT_EQ(h.Percentile(0.0), 102u);
    EXPECT_EQ(h.Percentile(0.5), 102u);
    for (double q : {0.0, 0.001, 0.25, 0.5, 0.99, 1.0}) {
        EXPECT_GE(h.Percentile(q), h.Min()) << "quantile " << q;
        EXPECT_LE(h.Percentile(q), h.Max()) << "quantile " << q;
    }
}

TEST(Histogram, TopPercentileIsExactMax)
{
    // 2'000'000 lands mid-bucket at this magnitude: the old midpoint
    // representative overshot the recorded maximum. q=1.0 must return
    // Max() exactly, and every quantile must stay within [Min(), Max()].
    Histogram h;
    h.Record(1'000'000);
    h.Record(2'000'000);
    EXPECT_EQ(h.Percentile(1.0), 2'000'000u);
    for (double q : {0.0, 0.5, 0.9, 0.999, 1.0}) {
        EXPECT_GE(h.Percentile(q), 1'000'000u) << "quantile " << q;
        EXPECT_LE(h.Percentile(q), 2'000'000u) << "quantile " << q;
    }
}

TEST(Histogram, PercentileStaysInRangeAcrossMagnitudes)
{
    // Sparse extreme samples: bucket midpoints at the top magnitude sit
    // well above max_ without clamping (width 2^57 at msb 62).
    Histogram h;
    h.Record(3);
    h.Record(1ull << 62);
    for (double q : {0.0, 0.4, 0.6, 1.0}) {
        EXPECT_GE(h.Percentile(q), 3u);
        EXPECT_LE(h.Percentile(q), 1ull << 62);
    }
    EXPECT_EQ(h.Percentile(1.0), 1ull << 62);
}

// Property sweep: representative value of the bucket containing v must be
// within the bucket's relative-error bound for magnitudes across the range.
class HistogramAccuracyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramAccuracyTest, RepresentativeWithinRelativeError)
{
    const std::uint64_t v = GetParam();
    Histogram h;
    h.Record(v);
    const double rep = static_cast<double>(h.Percentile(0.5));
    const double val = static_cast<double>(v);
    EXPECT_NEAR(rep / val, 1.0, 1.0 / 32 + 0.001) << "value " << v;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramAccuracyTest,
                         ::testing::Values(40ull, 1000ull, 750ull,
                                           10'000ull, 1'000'000ull,
                                           123'456'789ull,
                                           98'765'432'101ull));

// Reference implementation of the historical branchy bucket mapping.
// The branch-free BucketIndex must agree with it everywhere: the table
// layout (and with it BucketRepresentative, golden percentiles, and
// merged histograms) is frozen by this equivalence.
std::size_t
ReferenceBucketIndex(std::uint64_t value)
{
    constexpr int kBits = 5;
    constexpr std::uint64_t kSub = 1ull << kBits;
    if (value < kSub) return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kBits;
    const std::uint64_t sub = (value >> shift) & (kSub - 1);
    const std::size_t row = static_cast<std::size_t>(msb - kBits);
    return kSub + row * kSub + static_cast<std::size_t>(sub);
}

TEST(Histogram, BranchFreeBucketIndexMatchesReference)
{
    // Exhaustive over the exact range and the first two msb rows,
    // where the clamped shift/row terms change behavior.
    for (std::uint64_t v = 0; v < 4096; ++v) {
        ASSERT_EQ(Histogram::BucketIndex(v), ReferenceBucketIndex(v))
            << "value " << v;
    }
    // Power-of-two edges and their neighbors across all magnitudes.
    for (int msb = 5; msb < 64; ++msb) {
        const std::uint64_t base = 1ull << msb;
        for (std::uint64_t v :
             {base - 1, base, base + 1, base + (base >> 1),
              base + (base - 1)}) {
            ASSERT_EQ(Histogram::BucketIndex(v), ReferenceBucketIndex(v))
                << "value " << v;
        }
    }
    // A deterministic pseudo-random sweep across the full 64-bit range.
    std::uint64_t v = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 100'000; ++i) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        ASSERT_EQ(Histogram::BucketIndex(v), ReferenceBucketIndex(v))
            << "value " << v;
    }
    EXPECT_EQ(Histogram::BucketIndex(~0ull), ReferenceBucketIndex(~0ull));
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"load", "p99 (us)"});
    t.AddRow({"100000", "12.5"});
    t.AddRow({"200000", "31.0"});
    const std::string out = t.ToString();
    EXPECT_NE(out.find("load"), std::string::npos);
    EXPECT_NE(out.find("12.5"), std::string::npos);
    EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, FmtFormats)
{
    EXPECT_EQ(Table::Fmt("%.1f%%", 4.65), "4.7%");
    EXPECT_EQ(Table::Fmt("%d", 42), "42");
}

}  // namespace
}  // namespace wave::stats
