#ifndef EBS_SIM_DISTRIBUTION_H
#define EBS_SIM_DISTRIBUTION_H

#include "sim/rng.h"

namespace ebs::sim {

/**
 * A latency distribution expressed as (mean seconds, coefficient of
 * variation), sampled log-normally.
 *
 * Latency models throughout the simulator are specified this way because it
 * reads naturally in calibration tables ("3.2 s +/- 25%") and log-normal is a
 * reasonable shape for service times. A cv of 0 makes the draw deterministic.
 */
struct LatencyDist
{
    double mean_s = 0.0; ///< mean of produced samples, seconds
    double cv = 0.0;     ///< stddev / mean

    /** Draw one latency sample (>= 0). Zero-mean distributions return 0. */
    double
    sample(Rng &rng) const
    {
        if (mean_s <= 0.0)
            return 0.0;
        return rng.lognormal(mean_s, cv);
    }
};

} // namespace ebs::sim

#endif // EBS_SIM_DISTRIBUTION_H
