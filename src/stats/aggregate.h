#ifndef EBS_STATS_AGGREGATE_H
#define EBS_STATS_AGGREGATE_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace ebs::stats {

/**
 * Online accumulator for mean / stddev / min / max of a stream of samples
 * (Welford's algorithm, numerically stable).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = n_ == 1 ? x : std::min(min_, x);
        max_ = n_ == 1 ? x : std::max(max_, x);
    }

    std::size_t count() const { return n_; }
    double mean() const { return n_ > 0 ? mean_ : 0.0; }

    /** Population variance (0 with fewer than 2 samples). */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }
    double min() const { return n_ > 0 ? min_ : 0.0; }
    double max() const { return n_ > 0 ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Percentile of a sample vector with linear interpolation.
 *
 * @param samples non-empty set of samples (copied and sorted internally)
 * @param p       percentile in [0, 100]
 * @throws std::invalid_argument for empty `samples` or a `p` outside
 *         [0, 100] (NaN included), in every build
 */
double percentile(std::vector<double> samples, double p);

} // namespace ebs::stats

#endif // EBS_STATS_AGGREGATE_H
