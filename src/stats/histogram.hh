/**
 * @file
 * Fixed-bin-width histogram with empirical CDF queries.
 *
 * Used for Figure 4.1 (CDF of the bus waiting time) and for choosing the
 * execution-overlap values in Table 4.3 ("the minimum integer value at
 * which the CDF for RR is less than the CDF for FCFS").
 */

#ifndef BUSARB_STATS_HISTOGRAM_HH
#define BUSARB_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace busarb {

/**
 * Histogram over [0, +inf) with uniform bins; values beyond the last bin
 * accumulate in an overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param bin_width Width of each bin; must be > 0.
     * @param num_bins Number of regular bins; must be >= 1.
     */
    Histogram(double bin_width, std::size_t num_bins);

    /** Add one non-negative observation (negatives clamp to bin 0). */
    void add(double x);

    /** Remove all observations. */
    void clear();

    /**
     * Fold another histogram in (bin-wise sum).
     *
     * @param other Must have the same bin width and bin count.
     */
    void merge(const Histogram &other);

    /** @return Exact sum of the recorded observations. */
    double sum() const { return sum_; }

    /** @return Total number of observations. */
    std::uint64_t count() const { return total_; }

    /** @return Observations recorded beyond the last bin. */
    std::uint64_t overflow() const { return overflow_; }

    /** @return The configured bin width. */
    double binWidth() const { return binWidth_; }

    /** @return Number of regular bins. */
    std::size_t numBins() const { return bins_.size(); }

    /** @return Raw count in bin `i`. */
    std::uint64_t binCount(std::size_t i) const { return bins_.at(i); }

    /**
     * Empirical cumulative distribution function.
     *
     * @param x Query point.
     * @return Fraction of observations <= x (bin-resolution approximation);
     *         0 if the histogram is empty.
     */
    double cdf(double x) const;

    /**
     * Approximate quantile by inverse CDF over the bins.
     *
     * @param p Probability in [0, 1].
     * @return Upper edge of the first non-empty bin where the CDF
     *         reaches p. p = 0 returns the lower edge of the first
     *         non-empty bin (the minimum of the support at bin
     *         resolution); the overflow edge is returned only when the
     *         target mass falls in the overflow bucket. 0 if empty.
     */
    double quantile(double p) const;

    /** Mean of the recorded observations (bin midpoints, overflow at edge). */
    double approximateMean() const;

    /**
     * Approximate E[min(X, v)] from the bins.
     *
     * Used by Table 4.3's productivity: the expected execution overlap
     * realized per request when up to `v` units of useful work can be
     * overlapped with a waiting time X. Bin mass is taken at the bin
     * midpoint; overflow mass contributes min(v, overflow edge) = v for
     * any v below the overflow edge.
     *
     * @param v Overlap limit, >= 0.
     * @return Approximation of E[min(X, v)].
     */
    double expectedMin(double v) const;

    /**
     * Approximate E[max(X - v, 0)] from the bins: the mean residual
     * waiting time after up to `v` units have been overlapped with
     * useful work. Complements expectedMin: expectedMin(v) +
     * expectedExcess(v) equals the binned mean.
     *
     * @param v Overlap limit, >= 0.
     * @return Approximation of E[max(X - v, 0)], never negative.
     */
    double expectedExcess(double v) const;

    /**
     * Restore `count` serialized observations into bin `i` without
     * going through add(). Together with restoreOverflow and
     * restoreSum this reconstructs a histogram bit-exactly from its
     * serialized state (bin counts, overflow count, exact sum) — the
     * checkpoint/resume codec depends on the round trip being exact.
     *
     * @param i Bin index; must be < numBins().
     * @param count Observations to add to the bin.
     */
    void restoreBin(std::size_t i, std::uint64_t count);

    /** Restore `count` serialized observations into the overflow bucket. */
    void restoreOverflow(std::uint64_t count);

    /** Restore the exact observation sum (added to the current sum). */
    void restoreSum(double sum);

  private:
    double binWidth_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0; // exact sum of observations, for approximateMean
};

/**
 * Table 4.3's overlap value V: the smallest integer v >= 1 with
 * CDF_a(v) < CDF_b(v), "the point that maximizes the [b] advantage".
 * The search first asks for a clearly resolved crossing, a margin of
 * 0.01, so that sampling noise in the tails cannot trigger it, then
 * relaxes the margin to 0.001 and 0.0001 for distributions too close
 * for one (low loads), and else falls back to ceil(mean of a), the
 * natural crossing point.
 *
 * @param a The distribution that must fall below (RR in the paper).
 * @param b The distribution it is compared with (FCFS).
 * @return V, an integer >= 1, or ceil(mean of a) without a crossing.
 */
double overlapValue(const Histogram &a, const Histogram &b);

} // namespace busarb

#endif // BUSARB_STATS_HISTOGRAM_HH
