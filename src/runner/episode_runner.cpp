#include "runner/episode_runner.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "stats/host_clock.h"

namespace ebs::runner {

EpisodeRunner::EpisodeRunner(int jobs, sched::FleetScheduler *scheduler,
                             obs::Tracer *tracer)
    : jobs_(jobs > 0 ? jobs : defaultJobs()),
      scheduler_(scheduler != nullptr ? scheduler
                                      : &sched::FleetScheduler::shared()),
      tracer_(tracer != nullptr ? tracer : &obs::Tracer::shared())
{
}

int
EpisodeRunner::defaultJobs()
{
    return sched::FleetScheduler::defaultWorkers();
}

const EpisodeRunner &
EpisodeRunner::shared()
{
    static const EpisodeRunner instance;
    return instance;
}

core::EpisodeResult
runEpisode(const EpisodeJob &job, std::uint64_t trace_episode,
           obs::Tracer *tracer_hint)
{
    core::EpisodeOptions options;
    options.seed = job.seed;
    options.record_tokens = job.record_tokens;
    options.pipeline = job.pipeline;
    options.engine_service = job.engine_service;
    options.phase_wall = job.phase_wall;

    const auto dispatch = [&job](const core::EpisodeOptions &opts) {
        if (job.custom)
            return job.custom(opts);
        if (job.workload == nullptr)
            throw std::invalid_argument(
                "EpisodeJob has neither a workload nor a custom entry "
                "point");
        return job.workload->runWithConfig(job.config, job.difficulty,
                                           opts, job.n_agents);
    };

    if (!obs::traceEnabled())
        return dispatch(options);

    // Traced episode: bracket the whole run in an "episode" span (sim
    // time starts at 0 by definition of the episode clock) and adopt the
    // log once done. The id either came from the runner batch (stable
    // across EBS_JOBS) or is minted as a solo id here.
    obs::Tracer &tracer = job.tracer != nullptr ? *job.tracer
                          : tracer_hint != nullptr
                              ? *tracer_hint
                              : obs::Tracer::shared();
    obs::EpisodeTraceLog log(trace_episode != 0 ? trace_episode
                                                : tracer.nextSoloId());
    options.trace = &log;
    std::string label =
        job.workload != nullptr ? job.workload->name : "custom";
    label += "#" + std::to_string(job.seed);
    log.beginSpan("episode", std::move(label), 0.0, stats::hostNow());
    core::EpisodeResult result = dispatch(options);
    log.closeOpenSpans(result.sim_seconds, stats::hostNow());
    tracer.adopt(std::move(log));
    return result;
}

std::vector<core::EpisodeResult>
EpisodeRunner::run(const std::vector<EpisodeJob> &batch) const
{
    std::vector<core::EpisodeResult> results(batch.size());

    // One episode-id base per batch, minted before any job runs: episode
    // ids become (batch ordinal, submission index) pairs, a pure function
    // of submission order — which is what keeps the sim-time trace
    // stream byte-identical at any EBS_JOBS. 0 when tracing is off.
    const std::uint64_t trace_base =
        obs::traceEnabled() ? tracer_->nextBatchBase() : 0;

    if (jobs_ <= 1 || batch.size() <= 1) {
        // EBS_JOBS=1 (or a singleton batch) stays entirely on the calling
        // thread: the pre-runner serial behavior, exactly.
        for (std::size_t i = 0; i < batch.size(); ++i)
            results[i] = runEpisode(batch[i],
                                    trace_base == 0 ? 0 : trace_base + i,
                                    tracer_);
        return results;
    }

    sched::TaskGraph graph;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const EpisodeJob &job = batch[i];
        std::string label =
            job.workload != nullptr ? job.workload->name : "custom";
        label += "#" + std::to_string(job.seed);
        graph.add(
            [this, &results, &job, i, trace_base] {
                results[i] = runEpisode(job,
                                        trace_base == 0 ? 0
                                                        : trace_base + i,
                                        tracer_);
            },
            std::move(label));
    }

    // The contract this subsystem was refactored for: batches ride the
    // scheduler's persistent workers — a run must never spawn threads.
    const long long spawned_before = scheduler_->threadsSpawned();
    scheduler_->run(std::move(graph), jobs_);
    assert(scheduler_->threadsSpawned() == spawned_before &&
           "EpisodeRunner batches must reuse the scheduler's persistent "
           "worker pool");
    (void)spawned_before;

    return results;
}

} // namespace ebs::runner
