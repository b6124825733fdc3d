#ifndef EBS_RUNNER_RUN_STATS_H
#define EBS_RUNNER_RUN_STATS_H

#include <span>

#include "core/episode.h"
#include "stats/latency_recorder.h"

namespace ebs::runner {

/**
 * Averaged episode metrics over several episodes of one variant (one
 * workload × config × difficulty × team size).
 *
 * Built exclusively by foldEpisodes(): a pure, serial fold over an ordered
 * list of EpisodeResults. No accumulation ever happens inside episode
 * workers, so the aggregate is bit-identical whether the episodes ran
 * serially or across EBS_JOBS threads.
 */
struct RunStats
{
    int episodes = 0; ///< how many episodes were folded in

    double success_rate = 0.0;
    double avg_steps = 0.0;
    double avg_runtime_min = 0.0;
    double avg_step_latency_s = 0.0;
    stats::LatencyRecorder latency; ///< merged across episodes
    double msgs_generated = 0.0;    ///< per-episode average
    double msgs_useful = 0.0;       ///< per-episode average
    long long llm_calls = 0;        ///< total across episodes
    long long tokens = 0;           ///< total (in + out) across episodes

    /** Execute-phase speculation tallies summed across episodes (all
     * zero when the variant ran with speculative_execute off). */
    core::SpeculativeExecStats spec_exec;

    /** Every record of the episodes' batch logs, added in episode then
     * log order (its queue_delay_s is 0 on the open-loop path). */
    llm::BatchStats batching;
    /** Total simulated seconds the episodes spent. */
    double sim_seconds = 0.0;

    /** LLM calls averaged per episode (0 when nothing folded). */
    double llmCallsPerEpisode() const;

    /** Tokens (in + out) averaged per episode (0 when nothing folded). */
    double tokensPerEpisode() const;

    /** Fraction of speculative turns that hit a read/write clash or an
     * abort, and so could not commit (0 when none speculated). */
    double specConflictRate() const;

    /** Fraction of execute turns a concurrent execution would have to
     * run serially — conflicts, aborts, and turns never speculated (0
     * when nothing speculated). */
    double specReexecFraction() const;

    /** Modeled execute-phase speedup: serial latency sum over the
     * speculative critical path (1 when speculation never engaged). */
    double specExecSpeedup() const;

    /** Charged queueing delay as a fraction of total simulated episode
     * time (0 when the variant ran open-loop). */
    double queueDelayShare() const;
};

/**
 * Fold an ordered span of per-episode results into averaged stats.
 *
 * The fold order is the span order, so callers that keep submission
 * order (EpisodeRunner does) get floating-point results identical to a
 * serial run. Taking a span lets callers fold slices of a batch result
 * without copying episodes.
 */
RunStats foldEpisodes(std::span<const core::EpisodeResult> episodes);

} // namespace ebs::runner

#endif // EBS_RUNNER_RUN_STATS_H
