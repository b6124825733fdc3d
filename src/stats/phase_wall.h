#ifndef EBS_STATS_PHASE_WALL_H
#define EBS_STATS_PHASE_WALL_H

#include "core/sync.h"
#include "core/thread_annotations.h"

namespace ebs::stats {

/**
 * Process-wide *host* wall-clock accumulator for the two phase families
 * of the episode loop: compute phases (sense, plan, comm, reflect, and
 * solo-actor phases) and execute phases (env mutation, optionally
 * speculated). This is diagnostic
 * timing — run_all reads each suite's snapshot into its phase-wall
 * summary and BENCH_timeline.json, never into stdout metrics, because
 * host time varies run to run while every stdout metric must stay
 * byte-identical at any EBS_JOBS.
 *
 * Concurrent episodes add their phase times from scheduler threads, so
 * the tallies are mutex-guarded (core::Mutex + EBS_GUARDED_BY keeps the
 * -Wthread-safety CI job authoritative over this file too).
 */
class PhaseWallClock
{
  public:
    struct Snapshot
    {
        double compute_s = 0.0;
        double execute_s = 0.0;
        long long episodes = 0;
    };

    void
    addCompute(double seconds) EBS_EXCLUDES(mu_)
    {
        core::MutexLock lock(mu_);
        compute_s_ += seconds;
    }

    void
    addExecute(double seconds) EBS_EXCLUDES(mu_)
    {
        core::MutexLock lock(mu_);
        execute_s_ += seconds;
    }

    void
    addEpisode() EBS_EXCLUDES(mu_)
    {
        core::MutexLock lock(mu_);
        ++episodes_;
    }

    Snapshot
    snapshot() const EBS_EXCLUDES(mu_)
    {
        core::MutexLock lock(mu_);
        return {compute_s_, execute_s_, episodes_};
    }

    /** Zero every bucket — tests bracket a measured section with
     * reset()/snapshot(); suites never reset (run_all reports
     * each suite's cumulative total). */
    void
    reset() EBS_EXCLUDES(mu_)
    {
        core::MutexLock lock(mu_);
        compute_s_ = 0.0;
        execute_s_ = 0.0;
        episodes_ = 0;
    }

    /** The process-wide instance every Harness reports into. */
    static PhaseWallClock &shared();

  private:
    mutable core::Mutex mu_;
    double compute_s_ EBS_GUARDED_BY(mu_) = 0.0;
    double execute_s_ EBS_GUARDED_BY(mu_) = 0.0;
    long long episodes_ EBS_GUARDED_BY(mu_) = 0;
};

} // namespace ebs::stats

#endif // EBS_STATS_PHASE_WALL_H
