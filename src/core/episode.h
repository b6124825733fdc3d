#ifndef EBS_CORE_EPISODE_H
#define EBS_CORE_EPISODE_H

#include <vector>

#include "env/env.h"
#include "llm/engine.h"
#include "llm/engine_service.h"
#include "stats/latency_recorder.h"

namespace ebs::core {

/** Per-step prompt-size sample for the Fig. 6 token-growth series. */
struct StepTokens
{
    int step = 0;
    int agent = 0;          ///< agent id; -1 = central planner
    int plan_tokens = 0;    ///< planning prompt + completion size
    int message_tokens = 0; ///< communication prompt + completion size
};

/**
 * Execute-phase speculation tallies for one episode. Deterministic —
 * conflicts are decided by read/write-set intersection in agent-index
 * order on the episode's own serial run — so these are safe to fold into
 * paper metrics. The two seconds fields price the phase's *modeled*
 * critical path: exec_total_s is the serial sum of per-agent execute
 * latency, exec_critical_s what the same phase costs when clean agents
 * overlap (max over clean agents + sum over all other turns); their
 * ratio is the modeled speculative speedup.
 */
struct SpeculativeExecStats
{
    long long turns = 0;      ///< agent execute turns in speculated phases
    long long speculated = 0; ///< eligible (has_execution) turns
    long long committed = 0;  ///< speculative turns that would commit clean
    long long conflicts = 0;  ///< turns that read an earlier turn's write
    long long aborted = 0;    ///< turns that took an unloggable operation
    double exec_total_s = 0.0;
    double exec_critical_s = 0.0;
};

/** Everything measured over one episode (one long-horizon task run). */
struct EpisodeResult
{
    bool success = false;
    int steps = 0;             ///< global steps consumed (paper's L)
    double sim_seconds = 0.0;  ///< end-to-end wall-clock (simulated)
    double final_progress = 0.0;

    stats::LatencyRecorder latency; ///< per-module work accounting
    llm::LlmUsage llm;              ///< aggregated across engines

    int messages_generated = 0; ///< comm-module invocations
    int messages_useful = 0;    ///< messages that carried information

    std::vector<StepTokens> token_series; ///< filled when requested

    /**
     * LLM batches the engine service assembled for this episode: every
     * phase flush logs its groups, with or without `batch_llm_calls`.
     * Deterministic per seed, so post-join folds over a runner batch —
     * runner::foldEpisodes-style — reproduce at any EBS_JOBS.
     */
    std::vector<llm::BatchRecord> llm_batches;

    /** Execute-phase speculation tallies (all zero when the episode ran
     * with speculative_execute off). */
    SpeculativeExecStats spec_exec;

    /** The environment's path-query work (A* searches, nodes expanded,
     * label floods) over the episode; zeros where motion does no grid
     * search. Deterministic like everything else here. */
    env::PathWork path_work;

    /** Average simulated seconds per step (0 when no steps ran). */
    double
    secondsPerStep() const
    {
        return steps > 0 ? sim_seconds / steps : 0.0;
    }
};

} // namespace ebs::core

#endif // EBS_CORE_EPISODE_H
