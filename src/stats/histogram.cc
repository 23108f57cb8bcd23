#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace busarb {

Histogram::Histogram(double bin_width, std::size_t num_bins)
    : binWidth_(bin_width), bins_(num_bins, 0)
{
    BUSARB_ASSERT(bin_width > 0.0, "bin width must be positive");
    BUSARB_ASSERT(num_bins >= 1, "need at least one bin");
}

void
Histogram::add(double x)
{
    if (x < 0.0)
        x = 0.0;
    sum_ += x;
    ++total_;
    const auto idx = static_cast<std::size_t>(x / binWidth_);
    if (idx >= bins_.size())
        ++overflow_;
    else
        ++bins_[idx];
}

void
Histogram::clear()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    overflow_ = 0;
    total_ = 0;
    sum_ = 0.0;
}

void
Histogram::merge(const Histogram &other)
{
    BUSARB_ASSERT(other.binWidth_ == binWidth_ &&
                  other.bins_.size() == bins_.size(),
                  "merging histograms with different binning: ",
                  other.binWidth_, "x", other.bins_.size(), " into ",
                  binWidth_, "x", bins_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    overflow_ += other.overflow_;
    total_ += other.total_;
    sum_ += other.sum_;
}

double
Histogram::cdf(double x) const
{
    if (total_ == 0)
        return 0.0;
    if (x < 0.0)
        return 0.0;
    // Count full bins whose upper edge is <= x, plus a linear fraction of
    // the bin containing x. Beyond the last bin (which a table's cdf(t)
    // can ask for with any t) all regular mass is below; that is tested
    // before the bin index is formed, which a huge x would overflow.
    const double pos = x / binWidth_;
    if (!(pos < static_cast<double>(bins_.size())))
        return static_cast<double>(total_ - overflow_) /
               static_cast<double>(total_);
    const auto full = static_cast<std::size_t>(pos);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < full; ++i)
        below += bins_[i];
    double mass = static_cast<double>(below);
    const double frac = pos - static_cast<double>(full);
    mass += frac * static_cast<double>(bins_[full]);
    return mass / static_cast<double>(total_);
}

double
Histogram::quantile(double p) const
{
    BUSARB_ASSERT(p >= 0.0 && p <= 1.0, "quantile p out of range: ", p);
    if (total_ == 0)
        return 0.0;
    const double target = p * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue; // empty bins carry no mass and cannot satisfy p
        if (target <= 0.0) // p = 0: the minimum of the support
            return binWidth_ * static_cast<double>(i);
        cum += static_cast<double>(bins_[i]);
        if (cum >= target)
            return binWidth_ * static_cast<double>(i + 1);
    }
    // The in-range mass was exhausted before reaching the target, so
    // the quantile falls in the overflow bucket; clamp to its lower
    // edge explicitly rather than by fall-through.
    BUSARB_ASSERT(overflow_ > 0,
                  "quantile target beyond all recorded mass: p = ", p);
    return binWidth_ * static_cast<double>(bins_.size());
}

double
Histogram::approximateMean() const
{
    if (total_ == 0)
        return 0.0;
    return sum_ / static_cast<double>(total_);
}

double
Histogram::expectedMin(double v) const
{
    BUSARB_ASSERT(v >= 0.0, "expectedMin requires v >= 0, got ", v);
    if (total_ == 0)
        return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue;
        const double mid = (static_cast<double>(i) + 0.5) * binWidth_;
        acc += static_cast<double>(bins_[i]) * std::min(mid, v);
    }
    acc += static_cast<double>(overflow_) *
           std::min(v, binWidth_ * static_cast<double>(bins_.size()));
    return acc / static_cast<double>(total_);
}

double
Histogram::expectedExcess(double v) const
{
    BUSARB_ASSERT(v >= 0.0, "expectedExcess requires v >= 0, got ", v);
    if (total_ == 0)
        return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue;
        const double mid = (static_cast<double>(i) + 0.5) * binWidth_;
        acc += static_cast<double>(bins_[i]) * std::max(mid - v, 0.0);
    }
    const double edge = binWidth_ * static_cast<double>(bins_.size());
    acc += static_cast<double>(overflow_) * std::max(edge - v, 0.0);
    return acc / static_cast<double>(total_);
}

void
Histogram::restoreBin(std::size_t i, std::uint64_t count)
{
    BUSARB_ASSERT(i < bins_.size(), "restoreBin index ", i,
                  " out of range (", bins_.size(), " bins)");
    bins_[i] += count;
    total_ += count;
}

void
Histogram::restoreOverflow(std::uint64_t count)
{
    overflow_ += count;
    total_ += count;
}

void
Histogram::restoreSum(double sum)
{
    sum_ += sum;
}

double
overlapValue(const Histogram &a, const Histogram &b)
{
    for (double eps : {0.01, 0.001, 0.0001}) {
        for (int v = 1; v <= 200; ++v) {
            const double x = static_cast<double>(v);
            if (a.cdf(x) < b.cdf(x) - eps)
                return x;
        }
    }
    return std::ceil(a.approximateMean());
}

} // namespace busarb
