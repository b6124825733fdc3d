#ifndef EBS_CORE_COORDINATOR_H
#define EBS_CORE_COORDINATOR_H

#include "core/agent.h"
#include "core/config.h"
#include "core/episode.h"
#include "env/env.h"
#include "llm/engine_service.h"
#include "stats/phase_wall.h"

namespace ebs::obs {
class EpisodeTraceLog;
} // namespace ebs::obs

namespace ebs::core {

/** Options controlling one episode run. */
struct EpisodeOptions
{
    std::uint64_t seed = 1;      ///< master seed (agents fork substreams)
    bool record_tokens = false;  ///< fill EpisodeResult::token_series
    int max_steps_override = -1; ///< override the task's step budget
    PipelineOptions pipeline;    ///< optimization ablation switches

    /**
     * LLM engine service every agent module routes through (not owned);
     * defaults to the process-wide open-loop service. The episode opens
     * one session on it, and every LLM call is a handle on that session;
     * all usage and batch tallies land in the EpisodeResult. Never null:
     * the run functions throw std::invalid_argument naming this field.
     */
    const llm::LlmEngineService *engine_service =
        &llm::LlmEngineService::shared();

    /**
     * Host-wall accumulator the harness reports its compute/execute
     * phase times and episode count into (not owned). Defaults to the
     * process-wide clock; in-process bench suites substitute a per-suite
     * instance so run_all's phase-wall summary stays attributable per
     * suite after the spawn-per-suite model was retired. Never null: the
     * run functions throw std::invalid_argument naming this field.
     */
    stats::PhaseWallClock *phase_wall = &stats::PhaseWallClock::shared();

    /**
     * Episode-confined trace log the harness records dual-clock phase
     * spans, LLM batch/queue instants, and speculative commit outcomes
     * into (see obs/trace.h). nullptr — the default, and always the
     * case when EBS_TRACE is off — reduces every emission point to one
     * null check. Owned by the caller (runner::runEpisode creates one
     * per episode when tracing is enabled and adopts it into
     * obs::Tracer::shared() afterwards).
     */
    obs::EpisodeTraceLog *trace = nullptr;
};

/**
 * Run a single-agent episode in the modularized paradigm (paper Fig. 1b):
 * per step, sense -> (memory retrieve) -> plan -> execute -> reflect.
 * This is runDecentralized at n = 1 — the paradigms share one step loop.
 *
 * The environment must contain exactly one agent body; any other count
 * throws std::invalid_argument (in every build type).
 */
EpisodeResult runSingleAgent(env::Environment &environment,
                             const AgentConfig &config,
                             const EpisodeOptions &options);

/**
 * Run a centralized multi-agent episode (paper Fig. 1d): a central LLM
 * planner ingests every agent's state, produces the joint next-step plan,
 * and communicates instructions; agents execute and send local feedback.
 * LLM calls scale linearly with the agent count, but joint-plan quality
 * degrades as the coordination space grows.
 */
EpisodeResult runCentralized(env::Environment &environment,
                             const AgentConfig &config,
                             const EpisodeOptions &options);

/**
 * Run a decentralized multi-agent episode (paper Fig. 1e): every agent
 * plans for itself and engages in dialogue rounds with the others. Message
 * volume grows quadratically with the agent count; dialogue history is
 * concatenated into subsequent prompts.
 */
EpisodeResult runDecentralized(env::Environment &environment,
                               const AgentConfig &config,
                               const EpisodeOptions &options);

/**
 * Run a hierarchical multi-agent episode (paper Recommendation 9): agents
 * are grouped into clusters of `cluster_size`; each cluster is planned
 * centrally by one joint LLM call (small coordination space), and cluster
 * leads exchange one round of messages across clusters (bounded dialogue).
 * LLM calls scale with the number of clusters, not agents², and joint-plan
 * complexity is bounded by the cluster size — the paper's proposed remedy
 * for both paradigms' scalability failures.
 *
 * A `cluster_size` below 1 throws std::invalid_argument.
 */
EpisodeResult runHierarchical(env::Environment &environment,
                              const AgentConfig &config,
                              const EpisodeOptions &options,
                              int cluster_size = 3);

} // namespace ebs::core

#endif // EBS_CORE_COORDINATOR_H
