/**
 * @file
 * Unit tests for the histogram / empirical CDF.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "stats/histogram.hh"

namespace busarb {
namespace {

TEST(HistogramTest, EmptyHistogram)
{
    Histogram h(0.5, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.cdf(1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.approximateMean(), 0.0);
}

TEST(HistogramTest, BinningIsCorrect)
{
    Histogram h(1.0, 4);
    h.add(0.1);  // bin 0
    h.add(0.9);  // bin 0
    h.add(1.0);  // bin 1
    h.add(2.5);  // bin 2
    h.add(3.99); // bin 3
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.count(), 5u);
}

TEST(HistogramTest, OverflowBucket)
{
    Histogram h(1.0, 2);
    h.add(5.0);
    h.add(100.0);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.cdf(2.0), 0.0);  // all mass beyond the bins
    // Past the last bin the CDF is the regular mass, however far: a
    // t beyond the size_t range used to form a garbage bin index.
    h.add(0.5);
    EXPECT_DOUBLE_EQ(h.cdf(2.0), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.cdf(1e20), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.cdf(1e300), 1.0 / 3.0);
}

TEST(HistogramTest, NegativeClampsToFirstBin)
{
    Histogram h(1.0, 2);
    h.add(-3.0);
    EXPECT_EQ(h.binCount(0), 1u);
}

TEST(HistogramTest, CdfAtBinEdges)
{
    Histogram h(1.0, 4);
    for (double v : {0.5, 1.5, 2.5, 3.5})
        h.add(v);
    EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdf(1.0), 0.25);
    EXPECT_DOUBLE_EQ(h.cdf(2.0), 0.5);
    EXPECT_DOUBLE_EQ(h.cdf(4.0), 1.0);
    EXPECT_DOUBLE_EQ(h.cdf(100.0), 1.0);
}

TEST(HistogramTest, CdfInterpolatesWithinBin)
{
    Histogram h(2.0, 2);
    h.add(0.5);
    h.add(1.5); // both bin 0
    // Halfway through bin 0 -> half its mass.
    EXPECT_DOUBLE_EQ(h.cdf(1.0), 0.5);
    EXPECT_DOUBLE_EQ(h.cdf(2.0), 1.0);
}

TEST(HistogramTest, CdfIsMonotone)
{
    Histogram h(0.25, 64);
    for (int i = 0; i < 1000; ++i)
        h.add(0.013 * i);
    double prev = -1.0;
    for (double x = 0.0; x <= 16.0; x += 0.1) {
        const double c = h.cdf(x);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(HistogramTest, QuantileInvertsCdf)
{
    Histogram h(1.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i * 0.1); // uniform over [0, 10)
    EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
    EXPECT_NEAR(h.quantile(0.9), 9.0, 1.0);
    // p = 0 is the minimum of the support, not the first bin edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramTest, QuantileZeroSkipsLeadingEmptyBins)
{
    Histogram h(1.0, 10);
    h.add(3.5); // bin 3; bins 0-2 stay empty
    h.add(3.6);
    // The lower edge of the first non-empty bin, not bin 0's edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(HistogramTest, QuantileClampsToEdgeOnlyForOverflowMass)
{
    Histogram h(1.0, 2);
    h.add(0.5);
    h.add(5.0); // overflow
    // In-range mass resolves normally...
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    // ...and only a target inside the overflow mass clamps to the edge.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(HistogramTest, QuantileZeroWithOnlyOverflowMassReturnsEdge)
{
    Histogram h(1.0, 2);
    h.add(9.0); // everything beyond the bins
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(HistogramTest, ApproximateMeanIsExactSumBased)
{
    Histogram h(1.0, 4);
    h.add(0.5);
    h.add(1.5);
    h.add(7.0); // overflow still counted in the mean
    EXPECT_DOUBLE_EQ(h.approximateMean(), 3.0);
}

TEST(HistogramTest, ExpectedMinClampsAtLimit)
{
    Histogram h(1.0, 10);
    h.add(0.5); // mid 0.5
    h.add(2.5); // mid 2.5
    h.add(8.5); // mid 8.5
    // v larger than everything: plain mean of midpoints.
    EXPECT_NEAR(h.expectedMin(100.0), (0.5 + 2.5 + 8.5) / 3.0, 1e-12);
    // v = 2: min(0.5,2) + min(2.5,2) + min(8.5,2) over 3.
    EXPECT_NEAR(h.expectedMin(2.0), (0.5 + 2.0 + 2.0) / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(h.expectedMin(0.0), 0.0);
}

TEST(HistogramTest, ExpectedExcessComplementsExpectedMin)
{
    Histogram h(1.0, 10);
    h.add(0.5);
    h.add(2.5);
    h.add(8.5);
    for (double v : {0.0, 1.0, 3.0, 7.0, 20.0}) {
        EXPECT_NEAR(h.expectedMin(v) + h.expectedExcess(v),
                    h.approximateMean(), 1e-12)
            << v;
        EXPECT_GE(h.expectedExcess(v), 0.0);
    }
    EXPECT_NEAR(h.expectedExcess(2.0), (0.0 + 0.5 + 6.5) / 3.0, 1e-12);
}

TEST(HistogramTest, ExpectedMinCountsOverflowAtLimit)
{
    Histogram h(1.0, 2);
    h.add(0.5);
    h.add(50.0); // overflow
    EXPECT_NEAR(h.expectedMin(1.5), (0.5 + 1.5) / 2.0, 1e-12);
}

TEST(HistogramTest, OverlapValueIsTheFirstResolvedCrossing)
{
    // a spreads over [0, 10); b sits at 4.5: CDF_a(v) < CDF_b(v) - 0.01
    // first at v = 5.
    Histogram a(0.25, 100), b(0.25, 100);
    for (int i = 0; i < 40; ++i)
        a.add(0.25 * i + 0.1);
    for (int i = 0; i < 40; ++i)
        b.add(4.5);
    EXPECT_DOUBLE_EQ(overlapValue(a, b), 5.0);
    // b is below a from the start.
    EXPECT_DOUBLE_EQ(overlapValue(b, a), 1.0);
    // Without a crossing, V is the mean rounded up.
    EXPECT_DOUBLE_EQ(overlapValue(b, b), 5.0);
    EXPECT_DOUBLE_EQ(std::ceil(b.approximateMean()), 5.0);
}

TEST(HistogramTest, ClearResets)
{
    Histogram h(1.0, 4);
    h.add(1.0);
    h.add(9.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.cdf(10.0), 0.0);
}

TEST(HistogramDeathTest, InvalidConstruction)
{
    EXPECT_DEATH(Histogram(0.0, 4), "bin width");
    EXPECT_DEATH(Histogram(1.0, 0), "at least one bin");
}

TEST(HistogramDeathTest, QuantileOutOfRange)
{
    Histogram h(1.0, 4);
    h.add(1.0);
    EXPECT_DEATH(h.quantile(1.5), "out of range");
}

} // namespace
} // namespace busarb
