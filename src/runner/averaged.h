#ifndef EBS_RUNNER_AVERAGED_H
#define EBS_RUNNER_AVERAGED_H

#include <cstdint>
#include <vector>

#include "runner/episode_runner.h"
#include "runner/run_stats.h"

namespace ebs::runner {

/**
 * One averaged measurement: `seeds` episodes of a single workload variant.
 * This is the row unit of every figure/table bench — benches build a list
 * of variants (their full parameter grid), fan all episodes out through
 * one EpisodeRunner batch, and get one RunStats per variant back.
 */
struct RunVariant
{
    const workloads::WorkloadSpec *workload = nullptr;
    core::AgentConfig config;
    env::Difficulty difficulty = env::Difficulty::Medium;
    int seeds = 1;
    int n_agents = -1;
    core::PipelineOptions pipeline;

    /** Phase-wall accumulator for every episode of the variant (see
     * EpisodeJob::phase_wall). */
    stats::PhaseWallClock *phase_wall = &stats::PhaseWallClock::shared();

    /** Custom episode entry point (see EpisodeJob::custom); when set,
     * `workload`/`config`/`difficulty`/`n_agents` are ignored. */
    std::function<core::EpisodeResult(const core::EpisodeOptions &)> custom;
};

/**
 * Master seed of the i-th episode (1-based) of an averaged run. The
 * pre-runner bench loops used exactly this derivation, so averaged
 * results stay comparable across the refactor.
 */
inline std::uint64_t
episodeSeed(int seed_index)
{
    return 1000ULL + static_cast<std::uint64_t>(seed_index) * 7919ULL;
}

/**
 * Run every variant's seed fan-out as one batch and fold per variant.
 * Results are indexed like `variants`; episode submission order (and thus
 * the fold order) is variant-major, seed-minor, independent of the
 * runner's worker count.
 */
std::vector<RunStats> runAveragedMany(const EpisodeRunner &runner,
                                      const std::vector<RunVariant> &variants);

} // namespace ebs::runner

#endif // EBS_RUNNER_AVERAGED_H
