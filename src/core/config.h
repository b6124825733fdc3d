#ifndef EBS_CORE_CONFIG_H
#define EBS_CORE_CONFIG_H

#include "llm/model_profile.h"
#include "memory/memory.h"
#include "sim/distribution.h"

namespace ebs::core {

/**
 * Latency calibration of the non-LLM parts of an agent's pipeline plus the
 * prompt-size parameters of its LLM calls. Per-workload values live in
 * src/workloads/calibration.h and are tuned against the paper's Fig. 2a.
 */
struct ModuleLatencies
{
    /** Perception model time per step (ViT / Mask R-CNN / MineCLIP...). */
    sim::LatencyDist sensing{0.4, 0.3};

    /** P(the perception model misses an in-view object this step). Missed
     * objects are absent from the percept (and thus from memory) until a
     * later sighting — detector recall is not 1.0 in any real system.
     * Opt-in (0 by default): the suite's calibration treats detector
     * recall as part of the plan-quality model instead. */
    double sensing_miss_rate = 0.0;

    /** Actuation time per primitive interaction (grasp, open, chop...). */
    sim::LatencyDist actuation{0.5, 0.3};

    /** Locomotion time per grid cell moved. */
    double move_per_cell_s = 0.15;

    /** Low-level planner compute per motion query (A-star or RRT). */
    sim::LatencyDist motion_planner{0.08, 0.5};

    // --- prompt shaping (token counts) ---
    int plan_prompt_base = 600;   ///< system text, task, few-shot examples
    int plan_out_tokens = 90;     ///< generated plan length
    int comm_prompt_base = 350;   ///< message-generation preamble
    int comm_out_tokens = 60;     ///< generated message length
    int reflect_prompt_base = 280;
    int reflect_out_tokens = 36;
    int action_select_out_tokens = 24;
    int menu_tokens_per_option = 7;
    int state_tokens_per_agent = 90; ///< centralized joint-prompt growth
};

/**
 * Composition and behavior of one embodied agent: which of the six modules
 * it has (paper Table I/II), the model behind each LLM-based module, memory
 * configuration, and calibration.
 */
struct AgentConfig
{
    // --- module composition (ablation switches, Fig. 3) ---
    bool has_sensing = true;
    bool has_communication = false;
    bool has_memory = true;
    bool has_reflection = true;
    bool has_execution = true;

    /** CoELA runs a third LLM call per step to pick the concrete action. */
    bool llm_action_selection = false;

    llm::ModelProfile planner_model = llm::ModelProfile::gpt4Api();
    llm::ModelProfile comm_model = llm::ModelProfile::gpt4Api();
    llm::ModelProfile reflect_model = llm::ModelProfile::gpt4Api();

    memory::MemoryModule::Config memory;

    ModuleLatencies lat;

    // --- behavior model constants ---

    /** P(a generated message carries task-relevant information) — the
     * paper observes only ~20% of CoELA's pre-generated messages matter. */
    double message_utility = 0.20;

    /** On an undetected failure, P(the agent wrongly marks the subgoal's
     * object as handled) vs. re-attempting the same subgoal next step. */
    double phantom_completion = 0.5;

    /** P(a failed action is noticed from raw environment feedback alone,
     * without a reflection module). The reflection module replaces this
     * with the (higher) reflect_quality of its model and adds the LLM
     * latency of the judgment call. */
    double env_feedback_detection = 0.45;

    /** P(an incorrect plan is an outright hallucination — acting on an
     * object in an impossible way) vs. merely wasteful-but-valid. */
    double hallucination_rate = 0.3;

    /**
     * Probability that one interaction primitive (grasp, open, chop, ...)
     * slips and fails at actuation time — the routine low-level
     * stochasticity (missed grasps, collisions) that reflection exists to
     * catch and re-plan around.
     */
    double actuation_failure = 0.08;

    /** Per-(other)agent complexity added to a centralized joint plan. */
    double central_joint_complexity = 0.08;

    /** Complexity added per concurrent agent in decentralized planning
     * (intent modeling of teammates). */
    double decentralized_complexity = 0.015;
};

/** Pipeline-level execution options (optimization ablations, Sec. V-D). */
struct PipelineOptions
{
    /** Plan once every k steps, executing k subgoals per plan (Rec. 7). */
    int plan_every_k = 1;

    /** Generate messages only when planning flags the need (Rec. 8),
     * instead of pre-generating every step. */
    bool comm_on_demand = false;

    /** Model per-agent module pipelines as concurrent: each phase costs
     * the slowest agent plus a serial residue rather than the sum
     * (Sec. IV-A observation). Modeled only — agents still run one
     * after another on the episode's thread. */
    bool parallel_agents = false;

    /** Compress retrieved history into summaries before prompting
     * (Rec. 6); ratio of retained tokens. */
    double context_compression = 1.0;

    /**
     * Batch the same-backend LLM calls of one coordinator phase into a
     * single joint inference (Rec. 1) and charge the episode clock its
     * `llm::jointBatchTime` — summed prefill + longest decode + one mean
     * RTT, clamped at the sequential sum — instead of the members'
     * individually sampled latencies. Responses are untouched (sampling
     * streams are identical either way), so only `sim_seconds` changes.
     * Batching is phase-granular: whatever one flush window assembles is
     * priced as one batch per backend (every episode's engine-service
     * session assembles them; this switch only decides who pays).
     */
    bool batch_llm_calls = false;

    /**
     * Model an optimistic execute phase: each turn runs once, in agent
     * order, with an access log on the live world, and the `spec_*`
     * tallies record which turns a concurrent snapshot-and-commit
     * execution would commit (no read of state earlier agents wrote)
     * and which it would re-execute. Every
     * result, counter and clock value is the serial schedule's. Modeled
     * only: no host threads, no snapshots. Inert for single-agent teams
     * and for environments that report !speculativeExecuteSafe().
     */
    bool speculative_execute = false;
};

} // namespace ebs::core

#endif // EBS_CORE_CONFIG_H
