#include "runner/averaged.h"

#include <span>

namespace ebs::runner {

std::vector<RunStats>
runAveragedMany(const EpisodeRunner &runner,
                const std::vector<RunVariant> &variants)
{
    std::vector<EpisodeJob> jobs;
    std::size_t total = 0;
    for (const auto &variant : variants)
        total += static_cast<std::size_t>(variant.seeds > 0 ? variant.seeds
                                                            : 0);
    jobs.reserve(total);

    for (const auto &variant : variants) {
        for (int seed = 1; seed <= variant.seeds; ++seed) {
            EpisodeJob job;
            job.workload = variant.workload;
            job.config = variant.config;
            job.difficulty = variant.difficulty;
            job.seed = episodeSeed(seed);
            job.n_agents = variant.n_agents;
            job.pipeline = variant.pipeline;
            job.phase_wall = variant.phase_wall;
            job.custom = variant.custom;
            jobs.push_back(std::move(job));
        }
    }

    const std::vector<core::EpisodeResult> episodes = runner.run(jobs);

    std::vector<RunStats> stats;
    stats.reserve(variants.size());
    std::size_t offset = 0;
    for (const auto &variant : variants) {
        const std::size_t n =
            static_cast<std::size_t>(variant.seeds > 0 ? variant.seeds : 0);
        stats.push_back(foldEpisodes(
            std::span<const core::EpisodeResult>(episodes).subspan(offset,
                                                                   n)));
        offset += n;
    }
    return stats;
}

} // namespace ebs::runner
