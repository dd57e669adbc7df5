#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hpp"

namespace vguard {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), binWidth_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    if (!(hi > lo))
        fatal("Histogram: hi (%g) must exceed lo (%g)", hi, lo);
    if (bins == 0)
        fatal("Histogram: need at least one bin");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
    } else if (x >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<size_t>((x - lo_) / binWidth_);
        if (idx >= counts_.size())
            idx = counts_.size() - 1; // guard fp rounding at the top edge
        ++counts_[idx];
    }
}

void
Histogram::merge(const Histogram &other)
{
    if (other.lo_ != lo_ || other.hi_ != hi_ ||
        other.counts_.size() != counts_.size())
        fatal("Histogram::merge: geometry mismatch ([%g,%g)x%zu vs "
              "[%g,%g)x%zu)",
              lo_, hi_, counts_.size(), other.lo_, other.hi_,
              other.counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
}

double
Histogram::binCenter(size_t i) const
{
    return lo_ + (static_cast<double>(i) + 0.5) * binWidth_;
}

double
Histogram::fraction(size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

double
Histogram::fractionBelow(double x) const
{
    if (total_ == 0)
        return 0.0;
    if (x < lo_)
        return 0.0;
    uint64_t below = underflow_;
    if (x >= hi_) {
        // Everything that landed in a bin is below hi_ <= x; overflow
        // samples (>= hi_) cannot be classified and are excluded.
        for (uint64_t c : counts_)
            below += c;
    } else {
        // Locate x's bin with the same arithmetic add() uses, so exact
        // bin-boundary queries agree with the half-open [lo, hi)
        // binning: a sample equal to a boundary is counted in the bin
        // above it, and fractionBelow(boundary) counts every bin
        // strictly below it. (The old accumulated-upper-edge
        // comparison drifted from add()'s division by up to one ulp at
        // boundaries.)
        auto idx = static_cast<size_t>((x - lo_) / binWidth_);
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        for (size_t i = 0; i < idx; ++i)
            below += counts_[i];
    }
    return static_cast<double>(below) / static_cast<double>(total_);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = total_ = 0;
}

std::string
Histogram::ascii(size_t width) const
{
    uint64_t peak = 1;
    for (uint64_t c : counts_)
        peak = std::max(peak, c);

    std::string out;
    char line[160];
    for (size_t i = 0; i < counts_.size(); ++i) {
        const auto bar =
            static_cast<size_t>(static_cast<double>(counts_[i]) * width / peak);
        std::snprintf(line, sizeof(line), "%10.4f |%-*s| %8.4f%%\n",
                      binCenter(i), static_cast<int>(width),
                      std::string(bar, '#').c_str(), 100.0 * fraction(i));
        out += line;
    }
    return out;
}

} // namespace vguard
