/**
 * @file
 * Streaming statistics: RunningStat (Welford) and fixed-bin Histogram.
 *
 * These are used for the voltage-distribution characterisation (Fig. 10),
 * emergency-frequency accounting (Table 2) and general simulator stats.
 */

#ifndef VGUARD_UTIL_STATS_HPP
#define VGUARD_UTIL_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vguard {

/** Single-pass mean/variance/min/max accumulator (Welford's algorithm). */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Remove all samples. */
    void reset();

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance (0 with fewer than 2 samples). */
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width-bin histogram over [lo, hi) with out-of-range samples
 * accumulated in underflow/overflow counters.
 */
class Histogram
{
  public:
    /**
     * @param lo   Lower edge of the first bin.
     * @param hi   Upper edge of the last bin; must exceed @p lo.
     * @param bins Number of bins; must be >= 1.
     */
    Histogram(double lo, double hi, size_t bins);

    /** Add one sample. */
    void add(double x);

    /**
     * Merge another histogram's counts into this one; both must have
     * identical lo/hi/bin geometry (fatal otherwise).
     */
    void merge(const Histogram &other);

    /** Number of in-range bins. */
    size_t bins() const { return counts_.size(); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    /** Raw count of bin @p i. */
    uint64_t count(size_t i) const { return counts_[i]; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    /** Total samples including out-of-range ones. */
    uint64_t total() const { return total_; }

    /** Center x-value of bin @p i. */
    double binCenter(size_t i) const;
    /** Fraction of all samples falling in bin @p i. */
    double fraction(size_t i) const;
    /**
     * Fraction of samples strictly below @p x, at one-bin resolution
     * and consistent with add()'s half-open [lo, hi) binning: the
     * query counts underflow plus every bin strictly below the bin
     * containing @p x (computed with the same index arithmetic as
     * add(), so exact bin boundaries never straddle). For x < lo the
     * result is 0; for x >= hi it is everything except overflow.
     */
    double fractionBelow(double x) const;

    /** Reset all counts. */
    void reset();

    /**
     * Render a compact multi-line ASCII bar chart (used by benches to
     * print Fig. 10-style distributions).
     */
    std::string ascii(size_t width = 50) const;

    /** Same geometry and the same counts, exactly. */
    bool operator==(const Histogram &) const = default;

  private:
    double lo_, hi_, binWidth_;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

} // namespace vguard

#endif // VGUARD_UTIL_STATS_HPP
