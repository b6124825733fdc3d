#ifndef EBS_RUNNER_EPISODE_RUNNER_H
#define EBS_RUNNER_EPISODE_RUNNER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "env/env.h"
#include "sched/fleet_scheduler.h"
#include "workloads/workload.h"

namespace ebs::obs {
class Tracer;
} // namespace ebs::obs

namespace ebs::runner {

/**
 * One episode to execute: a workload variant plus the options of a single
 * run. Jobs are self-contained — everything an episode needs travels in
 * the descriptor, so any worker thread can execute any job.
 *
 * Two flavors:
 *  - workload jobs: `workload` points into the (immortal) suite registry
 *    and the episode runs `workload->runWithConfig(config, ...)`;
 *  - custom jobs: `custom` is set and receives the assembled
 *    EpisodeOptions — used by benches that drive paradigm entry points
 *    (runHierarchical, runEndToEnd) directly.
 */
struct EpisodeJob
{
    const workloads::WorkloadSpec *workload = nullptr;
    core::AgentConfig config;
    env::Difficulty difficulty = env::Difficulty::Medium;
    std::uint64_t seed = 1;
    int n_agents = -1; ///< -1 = workload default
    core::PipelineOptions pipeline;
    bool record_tokens = false;

    /**
     * Engine service the episode's LLM calls route through (not owned;
     * never null — the episode rejects null, see
     * EpisodeOptions::engine_service). Defaults to the process-wide
     * open-loop service; only its ServiceConfig matters, so episodes
     * sharing one instance stay independent and bit-identical.
     */
    const llm::LlmEngineService *engine_service =
        &llm::LlmEngineService::shared();

    /**
     * Ignored: episodes run entirely on the thread that executes them.
     * Kept only because the frozen host benchmark (perfbench/) still
     * assigns it; it goes with the next change to that benchmark.
     */
    sched::FleetScheduler *scheduler = nullptr;

    /**
     * Host-wall accumulator the episode's phase times are reported into
     * (see EpisodeOptions::phase_wall). Defaults to the process-wide
     * clock; in-process bench suites substitute their own instance.
     */
    stats::PhaseWallClock *phase_wall = &stats::PhaseWallClock::shared();

    /**
     * Trace sink the episode's log is adopted into when tracing is
     * enabled (not owned). nullptr = inherit: the runner executing this
     * job passes its own tracer, and a directly-called runEpisode() uses
     * obs::Tracer::shared(). In-process bench suites substitute a
     * per-suite tracer so each suite keeps its own trace track.
     */
    obs::Tracer *tracer = nullptr;

    /** When set, runs instead of the workload path. Must be thread-safe
     * with respect to every other job in the same batch. */
    std::function<core::EpisodeResult(const core::EpisodeOptions &)> custom;
};

/**
 * Thin batch facade over the process-wide FleetScheduler: episodes fan
 * out as one edge-free TaskGraph on the scheduler's *persistent* worker
 * pool (no per-batch thread spawning — the runner asserts the pool is
 * reused across batches).
 *
 * Each task writes its result into the slot matching the job's submission
 * index, so `run()` returns results in submission order and downstream
 * folds are deterministic. Episodes share no mutable state (all simulator
 * state is per-episode and every stochastic draw flows through the job's
 * seed), which makes the results bit-identical regardless of the worker
 * count. The runner therefore owns no lock and carries no capability
 * annotations (core/thread_annotations.h): disjoint result slots need no
 * mutex, and the cross-thread machinery it leans on — the FleetScheduler
 * pool — is annotated and `-Wthread-safety`-checked at its own layer.
 *
 * `jobs` caps how many of this runner's episodes are in flight at once
 * (the scheduler's pool size always caps globally); for the default
 * instance it comes from `EBS_JOBS` (falling back to
 * hardware_concurrency). `EBS_JOBS=1` runs every job inline on the
 * calling thread, preserving the pre-runner serial behavior exactly.
 */
class EpisodeRunner
{
  public:
    /**
     * @param jobs      in-flight episode cap; <= 0 selects defaultJobs()
     * @param scheduler pool to run on (not owned); nullptr selects
     *                  FleetScheduler::shared()
     * @param tracer    trace sink batches mint episode ids from and
     *                  adopt logs into (not owned); nullptr selects
     *                  obs::Tracer::shared()
     */
    explicit EpisodeRunner(int jobs = 0,
                           sched::FleetScheduler *scheduler = nullptr,
                           obs::Tracer *tracer = nullptr);

    /** In-flight episode cap of this runner (>= 1). */
    int jobs() const { return jobs_; }

    /** The scheduler batches execute on (never null). */
    sched::FleetScheduler *scheduler() const { return scheduler_; }

    /** The trace sink batches record into (never null). */
    obs::Tracer *tracer() const { return tracer_; }

    /** Execute a batch; results are in submission order. */
    std::vector<core::EpisodeResult>
    run(const std::vector<EpisodeJob> &batch) const;

    /** `EBS_JOBS` if set to a positive integer, else the hardware
     * concurrency (>= 1). Delegates to sched::FleetScheduler so the
     * whole fleet derives its budget from one parser. */
    static int defaultJobs();

    /** Process-wide runner built with defaultJobs() on
     * FleetScheduler::shared(), shared by the bench fleet so every bench
     * honors one EBS_JOBS setting. */
    static const EpisodeRunner &shared();

  private:
    int jobs_ = 1;
    sched::FleetScheduler *scheduler_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
};

/**
 * Execute one job on the calling thread (the serial building block).
 *
 * When tracing is enabled (obs::traceEnabled()) the episode runs with an
 * EpisodeTraceLog wired through EpisodeOptions::trace and adopts it into
 * the job's tracer (else `tracer`, else obs::Tracer::shared()).
 * `trace_episode` is the episode id for that log; 0 (the default, and
 * always the case when tracing is off) mints a solo id — EpisodeRunner
 * batches pass deterministic batch-derived ids instead so trace streams
 * reproduce at any EBS_JOBS.
 */
core::EpisodeResult runEpisode(const EpisodeJob &job,
                               std::uint64_t trace_episode = 0,
                               obs::Tracer *tracer = nullptr);

} // namespace ebs::runner

#endif // EBS_RUNNER_EPISODE_RUNNER_H
