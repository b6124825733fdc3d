#ifndef EBS_STATS_HOST_CLOCK_H
#define EBS_STATS_HOST_CLOCK_H

#include <chrono>

namespace ebs::stats {

/**
 * Monotonic host wall-clock, in seconds since an arbitrary process-local
 * epoch. This is the repo's ONE sanctioned host-timing site: every real
 * (non-simulated) duration — the coordinator's phase wall-clock, run_all's
 * per-suite wall-clock, the FleetScheduler's TaskTiming timeline — is a
 * difference of two hostNow() readings.
 *
 * Why a single chokepoint: simulated results must never read the host
 * clock (that is what makes paper metrics bit-identical at any EBS_JOBS),
 * so `ebs_lint` bans the std::chrono clock types outright. Concentrating
 * the legitimate diagnostic-timing use here gives the ban exactly one
 * suppressed line to audit instead of a scattered allowlist.
 */
inline double
hostNow()
{
    using clock = std::chrono::steady_clock; // EBS_LINT_ALLOW(host-clock): the one sanctioned host-timing site; see file comment
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

} // namespace ebs::stats

#endif // EBS_STATS_HOST_CLOCK_H
