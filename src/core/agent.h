#ifndef EBS_CORE_AGENT_H
#define EBS_CORE_AGENT_H

#include <optional>
#include <set>
#include <vector>

#include "core/config.h"
#include "core/message.h"
#include "env/env.h"
#include "llm/engine_service.h"
#include "memory/memory.h"
#include "sim/rng.h"
#include "stats/latency_recorder.h"

namespace ebs::core {

/** What the planning module decided this step. */
struct PlanDecision
{
    env::Subgoal subgoal;
    bool from_oracle = false; ///< the model picked a genuinely useful goal
    int prompt_tokens = 0;    ///< planning prompt size (Fig. 6 series)
    bool wants_comm = false;  ///< planning flagged communication as needed
};

/** Context the coordinator passes into a planning call. */
struct PlanContext
{
    int step = 0;
    int n_agents = 1;
    double compression = 1.0; ///< context-compression ratio (Rec. 6)
};

/**
 * One embodied agent: the composition of sensing, planning, communication,
 * memory, reflection, and execution modules (paper Fig. 1a), charging
 * every module's latency to the episode's recorder.
 *
 * The coordinators' shared step loop drives the per-step pipeline by
 * calling sense() / generateMessage() / plan() / execute() / reflect()
 * in paradigm order.
 */
class Agent
{
  public:
    /**
     * @param id       body id in the environment's world
     * @param config   module composition and calibration
     * @param environment shared environment (not owned)
     * @param rng      per-agent random stream
     * @param recorder shared latency recorder (not owned)
     * @param llm_session episode's engine-service session (not owned;
     *                 must outlive the agent); the agent's planner, comm
     *                 and reflect modules are handles on it, each with its
     *                 own RNG stream and usage, batched across agents.
     */
    Agent(int id, AgentConfig config, env::Environment *environment,
          sim::Rng rng, stats::LatencyRecorder *recorder,
          llm::EngineSession &llm_session);

    int id() const { return id_; }
    const AgentConfig &config() const { return config_; }
    memory::MemoryModule &memory() { return memory_; }
    const memory::MemoryModule &memory() const { return memory_; }

    /** Sum of LLM usage across this agent's engines. */
    llm::LlmUsage llmUsage() const;

    // --- per-step pipeline (called by coordinators) ---

    /** Run the sensing module: observe, update memory, charge latency. */
    void sense(int step);

    /** Ingest a message from another agent (dialogue memory + beliefs). */
    void receiveMessage(const Message &message, int step);

    /**
     * Run the communication module: generate an outgoing message (LLM
     * call). The message is generated unconditionally (the paper's
     * "pre-generate every step" inefficiency) unless the module is absent.
     */
    Message generateMessage(int step, int n_agents);

    /** Run the planning module: one LLM call, returns the chosen subgoal. */
    PlanDecision plan(int step, const PlanContext &context);

    /**
     * Oracle-assisted subgoal choice behind plan() and the centralized
     * coordinators: the good/bad decision is supplied by the caller (the
     * agent's own planning call, or a central planner's joint LLM call).
     */
    env::Subgoal chooseSubgoal(bool good_plan, bool hallucinate, int step);

    /** Run the execution module on a subgoal; true when it succeeded. */
    bool execute(int step, const env::Subgoal &subgoal);

    /**
     * Run the reflection module on an executed subgoal; updates memory and
     * intent state. The module judges two kinds of errors: *failed*
     * actions (`succeeded == false`) and *ineffective* ones (executed fine
     * but not advancing the task, `plan_was_sound == false`). Undetected
     * errors get logged as successes, corrupting the planning context,
     * and failed ones additionally trigger phantom-completion /
     * repeat-loop behavior.
     */
    void reflect(int step, const env::Subgoal &subgoal, bool succeeded,
                 bool plan_was_sound = true);

    /** Message size of the most recent generateMessage() call. */
    int lastMessageTokens() const { return last_message_tokens_; }

    /** Objects this agent believes are already handled (possibly wrongly). */
    const std::set<env::ObjectId> &believedDone() const
    {
        return believed_done_;
    }

  private:
    /** Objects currently known: live percept + memory beliefs. */
    bool knows(env::ObjectId id) const;

    /** Believed position of an object (percept beats memory). */
    std::optional<env::Vec2i> believedPos(env::ObjectId id) const;

    /** Pick the exploration target: least-recently-visited room. */
    env::Subgoal exploreSubgoal();

    /**
     * Search fallback when the agent knows no actionable objects: explore
     * unvisited rooms first; once the map is covered, open known closed
     * containers (items may be hidden inside); then keep patrolling.
     */
    env::Subgoal searchOrExploreSubgoal();

    /** Filter oracle subgoals to those the agent can knowingly pursue. */
    std::vector<env::Subgoal> knownUsefulSubgoals() const;

    /** A wasteful-but-valid subgoal (bad plan sample). */
    env::Subgoal suboptimalSubgoal();

    /** An impossible subgoal (hallucination sample). */
    env::Subgoal hallucinatedSubgoal();

    void charge(stats::ModuleKind kind, double seconds);

    int id_;
    AgentConfig config_;
    env::Environment *env_;
    sim::Rng rng_;
    stats::LatencyRecorder *recorder_;

    llm::EngineHandle planner_engine_;
    llm::EngineHandle comm_engine_;
    llm::EngineHandle reflect_engine_;
    memory::MemoryModule memory_;

    env::Observation percept_;          ///< most recent observation
    std::set<env::ObjectId> believed_done_;
    std::optional<env::Subgoal> repeat_intent_; ///< stuck-loop state
    int last_message_tokens_ = 0;
    int corrupted_records_ = 0; ///< failures wrongly logged as successes
};

} // namespace ebs::core

#endif // EBS_CORE_AGENT_H
