#include "stats/aggregate.h"

#include <stdexcept>
#include <string>

namespace ebs::stats {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        throw std::invalid_argument("percentile: samples must not be empty");
    if (!(p >= 0.0 && p <= 100.0)) // NaN fails
        throw std::invalid_argument(
            "percentile: p must be in [0, 100], got " + std::to_string(p));
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples.front();
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

} // namespace ebs::stats
