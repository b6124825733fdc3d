#include "core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "env/spec.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "stats/host_clock.h"
#include "stats/phase_wall.h"

namespace ebs::core {

namespace {

/** Throw std::invalid_argument naming `field` unless `ok`. */
template <typename T>
void
require(bool ok, const std::string &field, const char *rule, T value)
{
    if (!ok)
        throw std::invalid_argument(field + " must be " + rule + ", got " +
                                    std::to_string(value));
}

void
requireNonnegative(double value, const std::string &field)
{
    require(std::isfinite(value) && value >= 0.0, field, "finite and >= 0",
            value);
}

/**
 * Reject a model profile that would turn into negative or NaN latency
 * or call quality, naming the AgentConfig field and the model:
 * throughputs finite and > 0, RTT mean and jitter finite and >= 0, a
 * context window of at least one token, quality axes in [0, 1], a
 * dilution onset finite and >= 0 and a dilution scale finite and > 0.
 */
void
validate(const llm::ModelProfile &model, const char *field)
{
    // "AgentConfig::planner_model.decode_tok_per_s [GPT-4 (API)]"
    const auto name = [&](const char *member) {
        return std::string("AgentConfig::") + field + "." + member + " [" +
               model.name + "]";
    };
    const auto requirePositive = [&](double value, const char *member) {
        require(std::isfinite(value) && value > 0.0, name(member),
                "finite and > 0", value);
    };
    requirePositive(model.prefill_tok_per_s, "prefill_tok_per_s");
    requirePositive(model.decode_tok_per_s, "decode_tok_per_s");
    requireNonnegative(model.api_rtt_mean_s, name("api_rtt_mean_s"));
    requireNonnegative(model.api_rtt_cv, name("api_rtt_cv"));
    require(model.context_limit >= 1, name("context_limit"), ">= 1",
            model.context_limit);
    const std::pair<const char *, double> qualities[] = {
        {"plan_quality", model.plan_quality},
        {"comm_quality", model.comm_quality},
        {"reflect_quality", model.reflect_quality},
        {"format_compliance", model.format_compliance}};
    for (const auto &[member, q] : qualities)
        require(q >= 0.0 && q <= 1.0, name(member), "in [0, 1]",
                q); // NaN fails
    requireNonnegative(model.dilution_onset_tokens,
                       name("dilution_onset_tokens"));
    requirePositive(model.dilution_scale_tokens, "dilution_scale_tokens");
}

/**
 * Reject agent calibrations that would turn into negative or NaN
 * simulated time or plan quality, naming the field: latencies, memory
 * retrieval costs and planning complexities must be finite and
 * nonnegative, token counts and the memory inconsistency onset
 * nonnegative, behavior probabilities in [0, 1], and the three model
 * profiles valid.
 */
void
validate(const AgentConfig &config)
{
    validate(config.planner_model, "planner_model");
    validate(config.comm_model, "comm_model");
    validate(config.reflect_model, "reflect_model");
    const ModuleLatencies &lat = config.lat;
    const std::pair<const char *, const sim::LatencyDist &> dists[] = {
        {"sensing", lat.sensing},
        {"actuation", lat.actuation},
        {"motion_planner", lat.motion_planner}};
    for (const auto &[name, dist] : dists) {
        const std::string field = std::string("ModuleLatencies::") + name;
        requireNonnegative(dist.mean_s, field + ".mean_s");
        requireNonnegative(dist.cv, field + ".cv");
    }
    requireNonnegative(lat.move_per_cell_s,
                       "ModuleLatencies::move_per_cell_s");
    const memory::MemoryModule::Config &memory = config.memory;
    requireNonnegative(memory.retrieval_base_s,
                       "AgentConfig::memory.retrieval_base_s");
    requireNonnegative(memory.retrieval_per_record_s,
                       "AgentConfig::memory.retrieval_per_record_s");
    requireNonnegative(memory.inconsistency_rate,
                       "AgentConfig::memory.inconsistency_rate");
    require(memory.inconsistency_onset >= 0,
            "AgentConfig::memory.inconsistency_onset", ">= 0",
            memory.inconsistency_onset);
    requireNonnegative(config.central_joint_complexity,
                       "AgentConfig::central_joint_complexity");
    requireNonnegative(config.decentralized_complexity,
                       "AgentConfig::decentralized_complexity");
    const std::pair<const char *, int> token_counts[] = {
        {"plan_prompt_base", lat.plan_prompt_base},
        {"plan_out_tokens", lat.plan_out_tokens},
        {"comm_prompt_base", lat.comm_prompt_base},
        {"comm_out_tokens", lat.comm_out_tokens},
        {"reflect_prompt_base", lat.reflect_prompt_base},
        {"reflect_out_tokens", lat.reflect_out_tokens},
        {"action_select_out_tokens", lat.action_select_out_tokens},
        {"menu_tokens_per_option", lat.menu_tokens_per_option},
        {"state_tokens_per_agent", lat.state_tokens_per_agent}};
    for (const auto &[name, tokens] : token_counts)
        require(tokens >= 0, std::string("ModuleLatencies::") + name, ">= 0",
                tokens);
    const std::pair<const char *, double> probabilities[] = {
        {"ModuleLatencies::sensing_miss_rate", lat.sensing_miss_rate},
        {"AgentConfig::message_utility", config.message_utility},
        {"AgentConfig::phantom_completion", config.phantom_completion},
        {"AgentConfig::env_feedback_detection",
         config.env_feedback_detection},
        {"AgentConfig::hallucination_rate", config.hallucination_rate},
        {"AgentConfig::actuation_failure", config.actuation_failure}};
    for (const auto &[name, p] : probabilities)
        require(p >= 0.0 && p <= 1.0, name, "in [0, 1]", p); // NaN fails
}

/**
 * The episode's input boundary: validate `config`, then reject options
 * the episode loop cannot honor, naming the field: a null engine service
 * or phase-wall clock, a plan period below one step, or a
 * context-compression ratio that is not a finite fraction in (0, 1]
 * (NaN would otherwise reach the prompt arithmetic and produce negative
 * simulated time).
 */
const EpisodeOptions &
validated(const EpisodeOptions &options, const AgentConfig &config)
{
    validate(config);
    if (options.engine_service == nullptr)
        throw std::invalid_argument(
            "EpisodeOptions::engine_service must not be null");
    if (options.phase_wall == nullptr)
        throw std::invalid_argument(
            "EpisodeOptions::phase_wall must not be null");
    const PipelineOptions &pipeline = options.pipeline;
    require(pipeline.plan_every_k >= 1, "PipelineOptions::plan_every_k",
            ">= 1", pipeline.plan_every_k);
    const double compression = pipeline.context_compression;
    require(std::isfinite(compression) && compression > 0.0 &&
                compression <= 1.0,
            "PipelineOptions::context_compression", "in (0, 1]",
            compression);
    return options;
}

/**
 * One step's per-agent decisions, indexed by agent id: a coordinator's
 * plan stage sets every agent's `subgoals` and `sound` entry, and the
 * shared execute phase sets `execs` (nonzero = the subgoal succeeded).
 * It lives for the whole episode, so a plan stage still sees the
 * previous step's `execs`.
 */
struct StepPlan
{
    std::vector<env::Subgoal> subgoals;
    std::vector<char> sound;
    std::vector<char> execs;
};

/**
 * Shared episode machinery: agent construction, the one step loop
 * (runSteps), per-phase latency combination (sequential sum vs. modeled
 * parallel max), and result assembly. The paradigms differ only in the
 * plan stage they hand runSteps: who plans (each agent, one central
 * planner, or one lead per cluster) and who talks.
 *
 * An episode runs entirely on the thread that started it. Its phases
 * come in three kinds:
 *
 *  - phase(): one turn per agent, in agent-index order, against the
 *    live recorder, LLM session, and environment — so a turn sees
 *    whatever lower-indexed agents of the same phase did (the
 *    plan-then-communicate chain of Rec. 8 relies on this).
 *
 *  - executePhase(): phase() for the execute stage. With
 *    `speculative_execute` it also models optimistic concurrent
 *    execution (the validation test of optimistic concurrency control,
 *    applied to the serial run): each turn runs once, in agent-index
 *    order, with an access log attached to the live world. An eligible
 *    (`has_execution`) turn is aborted if its log carries the abort
 *    flag, conflicting if it read state an agent before it wrote (the
 *    log decides this at each read, from first-writer stamps; a turn's
 *    end writes the cells its body vacated or claimed), and committed
 *    otherwise. A turn run against a phase-start snapshot reads the
 *    same values as the serial turn up to the first read of a slot a
 *    predecessor wrote, and both make that read, so a turn commits
 *    here exactly when a snapshot-and-commit protocol would commit it
 *    (only whether a non-committed turn counts as a conflict or an abort
 *    can differ). The episode itself is the plain serial schedule.
 *
 *  - soloPhase(): a single actor (central planner, cluster lead).
 *
 * `parallel_agents` is a latency model, not host concurrency: advanceBy()
 * charges the slowest agent plus a serial residue.
 */
class Harness
{
  public:
    Harness(env::Environment &environment, const AgentConfig &config,
            const EpisodeOptions &options)
        : env_(environment), options_(validated(options, config)),
          master_rng_(options.seed),
          // The session is pinned (handles keep its address), so it is
          // built in place at its final location, before any agent mints
          // a handle on it.
          llm_session_(options.engine_service->openSession()),
          // Rec. 1 end-to-end: the ablation charges real joint-batch
          // latency to the clock. A queueing session (finite-capacity
          // backend serving, llm/backend_queue.h) always charges: the
          // closed loop *is* the scheduled completion — joint batch time
          // plus queueing + admission delay — landing on the clock at
          // every flush.
          charged_batching_(llm_session_.queueing() ||
                            options.pipeline.batch_llm_calls)
    {
        // Dual-clock tracing: a null trace (the EBS_TRACE=0 default)
        // keeps every emission point below a single pointer check.
        trace_ = options.trace;
        if (trace_ != nullptr)
            llm_session_.traceTo(trace_);
        const int n = env_.world().agentCount();
        for (int i = 0; i < n; ++i) {
            agents_.push_back(std::make_unique<Agent>(
                i, config, &env_, master_rng_.fork(100 + i), &recorder_,
                llm_session_));
        }
    }

    Agent &agent(int i) { return *agents_[static_cast<std::size_t>(i)]; }
    int agentCount() const { return static_cast<int>(agents_.size()); }
    sim::Rng &rng() { return master_rng_; }
    stats::LatencyRecorder &recorder() { return recorder_; }

    /**
     * The one step loop every paradigm runs. Per step: open the step,
     * sense, run the coordinator's `plan_stage(step, plan)` — its comm
     * and plan phases, which set every agent's subgoal and soundness —
     * then execute and reflect. Stops when the task is satisfied (returns
     * true) or the step budget is spent (returns false).
     */
    template <typename Fn>
    bool
    runSteps(Fn &&plan_stage)
    {
        const std::size_t n = agents_.size();
        StepPlan plan{std::vector<env::Subgoal>(n), std::vector<char>(n, 1),
                      std::vector<char>(n, 0)};
        for (int step = 0; step < maxSteps(); ++step) {
            env_.beginStep();
            setSteps(step + 1);
            phase("sense", [&](Agent &a) { a.sense(step); });
            plan_stage(step, plan);
            executePhase("execute", [&](Agent &a) {
                const auto idx = static_cast<std::size_t>(a.id());
                plan.execs[idx] = a.execute(step, plan.subgoals[idx]);
            });
            phase("reflect", [&](Agent &a) {
                const auto idx = static_cast<std::size_t>(a.id());
                a.reflect(step, plan.subgoals[idx], plan.execs[idx] != 0,
                          plan.sound[idx] != 0);
            });
            if (stepDone())
                return true;
        }
        return false;
    }

    /**
     * Mint an engine handle on the episode's service session — for the
     * central planner and cluster leads, whose calls then join the
     * session's batches.
     */
    llm::EngineHandle
    makeHandle(const llm::ModelProfile &profile, sim::Rng stream)
    {
        return llm_session_.handle(profile, stream);
    }

    /**
     * Close the open LLM batch groups. Called automatically at every
     * phase boundary; coordinators with solo actors (central planner,
     * cluster leads) call it wherever a causal dependency separates their
     * calls from the next batchable group.
     *
     * This is also the charging point of the batched-inference ablation:
     * when `batch_llm_calls` is live, each flushed (phase, backend) group
     * costs the episode clock its `jointBatchTime` (summed prefill +
     * longest decode + one RTT, clamped at the sequential sum) instead of
     * the members' individually sampled latencies, which the phases
     * withhold from their own clock advance. A group of one is charged
     * exactly its sequential sampled latency (the jointBatchTime
     * singleton rule), so batching never invents savings where nothing
     * co-batches.
     */
    void
    flushLlm()
    {
        llm_session_.setNow(clock_.now());
        llm_session_.flush();
        const double charge = llm_session_.takePendingCharge();
        if (charged_batching_)
            clock_.advance(charge);
    }

    /**
     * Run a per-agent phase: `turn` once per agent, in agent-index order,
     * against the live recorder, session, and environment; advance the
     * clock by the sum of the agents' latency contributions (sequential
     * pipeline) or the modeled max (parallel_agents). The phase boundary
     * is also the batch boundary: every same-backend LLM call the turns
     * issued forms one cross-agent batch.
     */
    template <typename Fn>
    void
    phase(const char *name, Fn &&turn)
    {
        const double host_begin = beginPhase(name);
        const PhaseCost cost = serialTurns(turn);
        flushLlm();
        advanceBy(cost);
        options_.phase_wall->addCompute(endPhase(host_begin));
    }

    /**
     * True when the execute phase tallies speculation. The gate depends
     * only on the options and the environment, so every tally is a pure
     * function of the episode's seed.
     */
    bool
    speculativeExecute() const
    {
        return options_.pipeline.speculative_execute &&
               agents_.size() > 1 && env_.speculativeExecuteSafe();
    }

    /**
     * Run the execute phase: phase() semantics (turns observe the world
     * as left by lower-indexed agents of the same step; clock advances
     * identically), with the speculation tallies taken when
     * speculativeExecute(). See the class comment for the rule and why
     * its counts are exact.
     */
    template <typename Fn>
    void
    executePhase(const char *name, Fn &&turn)
    {
        const double host_begin = beginPhase(name);
        const PhaseCost cost = serialTurns(turn, speculativeExecute());
        flushLlm();
        advanceBy(cost);
        options_.phase_wall->addExecute(endPhase(host_begin));
    }

    /** Run a single-actor phase (e.g., the central planner). Under
     * charged batching the actor's sampled LLM latency is withheld here
     * and charged at the next flush instead — that is what lets the
     * hierarchical coordinator's independent cluster-lead plans, each
     * issued in its own soloPhase, cost one cross-cluster jointBatchTime
     * rather than a serial sum. */
    template <typename Fn>
    void
    soloPhase(const char *name, Fn &&body)
    {
        const double host_begin = beginPhase(name);
        const double before = recorder_.grandTotal();
        const double llm_before = llm_session_.phaseBaseline();
        body();
        const double delta = recorder_.grandTotal() - before;
        if (charged_batching_) {
            const double llm = llm_session_.phaseBaseline() - llm_before;
            clock_.advance(std::max(0.0, delta - llm));
        } else {
            clock_.advance(delta);
        }
        options_.phase_wall->addCompute(endPhase(host_begin));
    }

    EpisodeResult
    finish(bool success, const llm::LlmUsage &extra = {})
    {
        EpisodeResult result;
        // takeLog() flushes any still-open groups (coordinators flush at
        // every phase boundary, so normally there are none); claim their
        // charge before the clock is read so no batch goes uncharged.
        llm_session_.setNow(clock_.now());
        result.llm_batches = llm_session_.takeLog();
        const double charge = llm_session_.takePendingCharge();
        if (charged_batching_)
            clock_.advance(charge);
        result.success = success;
        result.sim_seconds = clock_.now();
        result.final_progress = env_.task().progress(env_.world());
        result.latency = recorder_;
        result.llm = extra;
        for (const auto &agent : agents_)
            result.llm += agent->llmUsage();
        result.steps = steps_;
        result.messages_generated = messages_generated_;
        result.messages_useful = messages_useful_;
        result.token_series = std::move(token_series_);
        result.spec_exec = spec_stats_;
        result.path_work = env_.pathWork();
        options_.phase_wall->addEpisode();
        return result;
    }

    void countMessage(bool useful)
    {
        ++messages_generated_;
        if (useful)
            ++messages_useful_;
    }

    void
    recordTokens(int step, int agent, int plan_tokens, int message_tokens)
    {
        if (options_.record_tokens)
            token_series_.push_back({step, agent, plan_tokens,
                                     message_tokens});
    }

  private:
    int
    maxSteps() const
    {
        return options_.max_steps_override > 0 ? options_.max_steps_override
                                               : env_.task().maxSteps();
    }

    void
    setSteps(int steps)
    {
        steps_ = steps;
        llm_session_.beginStep(steps - 1);
        // The step bracket is sim-only (no host stamp is taken here);
        // stepDone() closes it.
        if (trace_ != nullptr)
            trace_->beginSpan("step", "step " + std::to_string(steps - 1),
                              clock_.now());
    }

    /** Close the current global step; true when the episode is over. */
    bool
    stepDone()
    {
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now()); // the step bracket (setSteps)
        return env_.task().satisfied(env_.world());
    }

    /**
     * The agents' latency contributions to one phase: `total`/`longest`
     * cover every charge (per-agent sum and max), `llm_total` is the
     * sampled-LLM share of `total`, and `nonllm_longest` the max over
     * agents of their non-LLM share.
     */
    struct PhaseCost
    {
        double total = 0.0;
        double longest = 0.0;
        double llm_total = 0.0;
        double nonllm_longest = 0.0;

        void
        add(double delta, double llm)
        {
            total += delta;
            longest = std::max(longest, delta);
            llm_total += llm;
            nonllm_longest =
                std::max(nonllm_longest, std::max(0.0, delta - llm));
        }
    };

    /** Open a phase's trace span; returns its host start stamp. */
    double
    beginPhase(const char *name)
    {
        const double host_begin = stats::hostNow();
        if (trace_ != nullptr)
            trace_->beginSpan("phase", name, clock_.now(), host_begin);
        return host_begin;
    }

    /** Close the span beginPhase() opened; returns the phase's host
     * wall time. */
    double
    endPhase(double host_begin)
    {
        const double host_end = stats::hostNow();
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now(), host_end);
        return host_end - host_begin;
    }

    /**
     * Run `turn` for every agent in index order, measuring each agent's
     * latency contribution from the live recorder and session. With
     * `speculate`, each turn runs with an access log attached to the live
     * world, and settleTurn() decides its speculation outcome from that
     * log (see the class comment).
     */
    template <typename Fn>
    PhaseCost
    serialTurns(Fn &turn, bool speculate = false)
    {
        PhaseCost cost;
        double clean_longest = 0.0;
        double serial_sum = 0.0;
        env::World &world = env_.world();
        if (speculate)
            spec_log_.beginPhase();
        for (auto &agent : agents_) {
            if (speculate) {
                spec_log_.beginTurn();
                turn_start_pos_.clear();
                for (const env::AgentBody &body : world.bodies())
                    turn_start_pos_.push_back(body.pos);
                world.setAccessLog(&spec_log_);
            }
            const double before = recorder_.grandTotal();
            const double llm_before = llm_session_.phaseBaseline();
            try {
                turn(*agent);
            } catch (...) {
                world.setAccessLog(nullptr);
                throw;
            }
            const double delta = recorder_.grandTotal() - before;
            // Turns note their completions into the session live, so the
            // turn's sampled LLM share is the growth of the open groups'
            // sequential baseline.
            cost.add(delta, llm_session_.phaseBaseline() - llm_before);
            if (speculate) {
                world.setAccessLog(nullptr);
                if (settleTurn(*agent, delta))
                    clean_longest = std::max(clean_longest, delta);
                else
                    serial_sum += delta;
            }
        }
        if (speculate) {
            spec_stats_.exec_total_s += cost.total;
            spec_stats_.exec_critical_s += clean_longest + serial_sum;
        }
        return cost;
    }

    /**
     * Tally one logged execute turn, then write the occupancy of the
     * cells its moves vacated and claimed. Returns true when the turn
     * commits clean, i.e. would have overlapped its predecessors.
     */
    bool
    settleTurn(const Agent &agent, double delta)
    {
        ++spec_stats_.turns;
        const char *outcome = "spec.serial";
        bool clean = false;
        if (agent.config().has_execution) {
            ++spec_stats_.speculated;
            if (spec_log_.aborted()) {
                ++spec_stats_.aborted;
                outcome = "spec.abort";
            } else if (spec_log_.conflicted()) {
                ++spec_stats_.conflicts;
                outcome = "spec.conflict";
            } else {
                ++spec_stats_.committed;
                outcome = "spec.commit";
                clean = true;
            }
        }
        const auto &bodies = env_.world().bodies();
        for (std::size_t j = 0; j < bodies.size(); ++j) {
            if (bodies[j].pos == turn_start_pos_[j])
                continue;
            spec_log_.writeCell(turn_start_pos_[j]);
            spec_log_.writeCell(bodies[j].pos);
        }
        if (trace_ != nullptr)
            trace_->instant("spec", outcome, clock_.now(), agent.id(),
                            {{"latency_s", delta}});
        return clean;
    }

    /**
     * Advance the episode clock for one phase (see PhaseCost).
     *
     * The two ablations compose explicitly instead of sharing a branch:
     *
     *  - `parallel_agents` concurrent per-agent pipelines cost the
     *    slowest agent plus a small serial residue (the recorder still
     *    holds the full work done);
     *  - `batch_llm_calls` (when live — see charged_batching_) charges
     *    each (phase, backend) batch its jointBatchTime at the flush
     *    point, so this function only advances the *non-LLM* remainder —
     *    serially summed unless parallel_agents also applies its
     *    max-over-agents rule to it. Batching alone must not discount
     *    motion/planning/actuation latency, which the old shared branch
     *    silently did.
     */
    void
    advanceBy(const PhaseCost &cost)
    {
        if (charged_batching_) {
            const double nonllm_total =
                std::max(0.0, cost.total - cost.llm_total);
            if (options_.pipeline.parallel_agents) {
                const double slowest =
                    std::min(cost.nonllm_longest, nonllm_total);
                clock_.advance(slowest + 0.15 * (nonllm_total - slowest));
            } else {
                clock_.advance(nonllm_total);
            }
            return;
        }
        if (options_.pipeline.parallel_agents) {
            clock_.advance(cost.longest +
                           0.15 * (cost.total - cost.longest));
        } else {
            clock_.advance(cost.total);
        }
    }

    env::Environment &env_;
    EpisodeOptions options_;
    /** Episode trace log (null = tracing off; see EpisodeOptions). */
    obs::EpisodeTraceLog *trace_ = nullptr;
    sim::Rng master_rng_;
    sim::SimClock clock_;
    stats::LatencyRecorder recorder_;
    llm::EngineSession llm_session_; ///< must outlive agents_ (handles)
    /** True when flushed batches charge their joint completion time to
     * the clock: `batch_llm_calls` is on, or the session queues. */
    const bool charged_batching_;
    std::vector<std::unique_ptr<Agent>> agents_;
    /** Speculated-phase state, kept across phases: the access log's
     * first-writer stamps and the body positions the current turn
     * started from. */
    env::spec::AccessLog spec_log_;
    std::vector<env::Vec2i> turn_start_pos_;
    SpeculativeExecStats spec_stats_;
    std::vector<StepTokens> token_series_;
    int steps_ = 0;
    int messages_generated_ = 0;
    int messages_useful_ = 0;
};

/** Broadcast a message to every other agent. */
void
broadcast(Harness &harness, const Message &message, int step)
{
    for (int i = 0; i < harness.agentCount(); ++i)
        if (i != message.from_agent)
            harness.agent(i).receiveMessage(message, step);
}

/**
 * The joint-plan coordinators' apply phase: each agent follows its
 * instruction, and a bad joint plan still gets parts right (per-agent
 * partial correctness). `plan_good(id)` is the verdict of the joint plan
 * covering agent `id`; the coin flips draw on the shared stream in
 * agent-index order.
 */
template <typename Fn>
void
applyJointPlan(Harness &harness, const AgentConfig &config, int step,
               StepPlan &plan, Fn &&plan_good)
{
    harness.phase("plan.apply", [&](Agent &a) {
        const bool agent_good =
            plan_good(a.id()) || harness.rng().bernoulli(0.25);
        const bool hallucinate =
            !agent_good && harness.rng().bernoulli(config.hallucination_rate);
        const auto idx = static_cast<std::size_t>(a.id());
        plan.sound[idx] = agent_good;
        plan.subgoals[idx] = a.chooseSubgoal(agent_good, hallucinate, step);
    });
}

} // namespace

EpisodeResult
runSingleAgent(env::Environment &environment, const AgentConfig &config,
               const EpisodeOptions &options)
{
    const int agents = environment.world().agentCount();
    if (agents != 1)
        throw std::invalid_argument(
            "runSingleAgent needs exactly one agent, the environment has " +
            std::to_string(agents));
    return runDecentralized(environment, config, options);
}

EpisodeResult
runCentralized(env::Environment &environment, const AgentConfig &config,
               const EpisodeOptions &options)
{
    Harness harness(environment, config, options);
    const int n = harness.agentCount();

    // The central planner has its own LLM streams, routed through the
    // episode's engine-service session like every agent module.
    llm::EngineHandle central =
        harness.makeHandle(config.planner_model, harness.rng().fork(999));
    llm::EngineHandle central_comm =
        harness.makeHandle(config.comm_model, harness.rng().fork(998));
    int dialogue_tokens = 0; // accumulated feedback in the central context

    const bool success = harness.runSteps([&](int step, StepPlan &plan) {
        // Central joint plan: prompt covers every agent's state plus the
        // accumulated feedback dialogue.
        bool good = false;
        int central_tokens = 0;
        harness.soloPhase("plan.central", [&] {
            llm::LlmRequest request;
            request.kind = llm::CallKind::Planning;
            request.tokens_in = config.lat.plan_prompt_base +
                                n * config.lat.state_tokens_per_agent +
                                static_cast<int>(
                                    dialogue_tokens *
                                    std::clamp(options.pipeline
                                                   .context_compression,
                                               0.05, 1.0));
            request.tokens_out_mean =
                config.lat.plan_out_tokens + 24 * (n - 1);
            request.complexity = std::clamp(
                config.central_joint_complexity * (n - 1), 0.0, 0.95);
            const auto response = central.complete(request);
            harness.recorder().record(stats::ModuleKind::Planning,
                                      response.latency_s);
            good = response.good;
            central_tokens = request.tokens_in + response.tokens_out;
        });
        // The joint plan gates everything after it: close its batch.
        harness.flushLlm();
        harness.recordTokens(step, -1, central_tokens, 0);
        // Local feedback: ~40 tokens per agent per step accumulate in the
        // central planner's context (read by the next step's plan).
        dialogue_tokens += 40 * n;

        // Instruction broadcast (one message generation for the team).
        if (config.has_communication) {
            harness.soloPhase("comm.broadcast", [&] {
                llm::LlmRequest request;
                request.kind = llm::CallKind::Communication;
                request.tokens_in = config.lat.comm_prompt_base + 30 * n;
                request.tokens_out_mean = config.lat.comm_out_tokens +
                                          12 * (n - 1);
                const auto response = central_comm.complete(request);
                harness.recorder().record(stats::ModuleKind::Communication,
                                          response.latency_s);
                harness.countMessage(true);
                harness.recordTokens(step, -1, 0,
                                     request.tokens_in +
                                         response.tokens_out);
            });
            harness.flushLlm();
        }

        applyJointPlan(harness, config, step, plan,
                       [&](int) { return good; });
    });

    llm::LlmUsage extra = central.usage();
    extra += central_comm.usage();
    return harness.finish(success, extra);
}

EpisodeResult
runHierarchical(env::Environment &environment, const AgentConfig &config,
                const EpisodeOptions &options, int cluster_size)
{
    require(cluster_size >= 1, "cluster_size", ">= 1", cluster_size);
    Harness harness(environment, config, options);
    const int n = harness.agentCount();
    const int k = cluster_size;
    const int clusters = (n + k - 1) / k;

    // One planning stream per cluster lead, all on the shared service —
    // the per-cluster joint plans are independent, so they assemble into
    // one cross-cluster batch per step.
    std::vector<llm::EngineHandle> leads;
    leads.reserve(static_cast<std::size_t>(clusters));
    for (int c = 0; c < clusters; ++c)
        leads.push_back(harness.makeHandle(config.planner_model,
                                           harness.rng().fork(700 + c)));

    const bool success = harness.runSteps([&](int step, StepPlan &plan) {
        // Cross-cluster coordination: one message per cluster lead,
        // broadcast to the other leads (bounded, not quadratic in n) once
        // every lead has spoken.
        if (config.has_communication && clusters > 1) {
            std::vector<Message> outbox;
            harness.phase("comm.leads", [&](Agent &a) {
                if (a.id() % k != 0)
                    return; // only cluster leads speak
                Message m = a.generateMessage(step, clusters);
                harness.countMessage(m.useful);
                outbox.push_back(std::move(m));
            });
            for (const auto &m : outbox)
                for (int c = 0; c < clusters; ++c)
                    if (c * k != m.from_agent && c * k < n)
                        harness.agent(c * k).receiveMessage(m, step);
        }

        // Per-cluster joint plans: coordination space bounded by k.
        std::vector<char> cluster_good(static_cast<std::size_t>(clusters));
        for (int c = 0; c < clusters; ++c) {
            const int members = std::min(k, n - c * k);
            harness.soloPhase("plan.cluster", [&] {
                llm::LlmRequest request;
                request.kind = llm::CallKind::Planning;
                request.tokens_in = config.lat.plan_prompt_base +
                                    members *
                                        config.lat.state_tokens_per_agent;
                request.tokens_out_mean =
                    config.lat.plan_out_tokens + 20 * (members - 1);
                request.complexity = std::clamp(
                    config.central_joint_complexity * (members - 1), 0.0,
                    0.95);
                const auto response =
                    leads[static_cast<std::size_t>(c)].complete(request);
                harness.recorder().record(stats::ModuleKind::Planning,
                                          response.latency_s);
                cluster_good[static_cast<std::size_t>(c)] = response.good;
            });
        }
        // All cluster plans are independent: one cross-cluster batch.
        harness.flushLlm();

        applyJointPlan(harness, config, step, plan, [&](int id) {
            return cluster_good[static_cast<std::size_t>(id / k)] != 0;
        });
    });

    llm::LlmUsage extra;
    for (const auto &lead : leads)
        extra += lead.usage();
    return harness.finish(success, extra);
}

EpisodeResult
runDecentralized(env::Environment &environment, const AgentConfig &config,
                 const EpisodeOptions &options)
{
    Harness harness(environment, config, options);
    const int n = harness.agentCount();
    const int plan_every = options.pipeline.plan_every_k;
    std::vector<int> guided_left(static_cast<std::size_t>(n), 0);
    const bool comm_during_planning =
        config.has_communication && options.pipeline.comm_on_demand;

    const bool success = harness.runSteps([&](int step, StepPlan &plan) {
        // Dialogue: in the default pipeline, every agent pre-generates a
        // message every step (the paper's observed inefficiency), in
        // turn-taking rounds that grow with the team size. Messages are
        // delivered after the round.
        if (config.has_communication && !options.pipeline.comm_on_demand) {
            const int rounds = 1 + (n - 1) / 4;
            for (int round = 0; round < rounds; ++round) {
                std::vector<Message> outbox(static_cast<std::size_t>(n));
                harness.phase("comm.dialogue", [&](Agent &a) {
                    Message &m = outbox[static_cast<std::size_t>(a.id())];
                    m = a.generateMessage(step, n);
                    harness.countMessage(m.useful);
                    harness.recordTokens(step, a.id(), 0,
                                         a.lastMessageTokens());
                });
                for (const auto &m : outbox)
                    broadcast(harness, m, step);
            }
        }

        // Independent planning with teammate-intent complexity.
        // Planning-then-communication (Rec. 8): an agent's plan may
        // broadcast immediately, and later agents plan *with* that message
        // in memory — the phase's agent-index order is that dependency
        // chain.
        harness.phase(comm_during_planning ? "plan.comm" : "plan",
                      [&](Agent &a) {
            const auto idx = static_cast<std::size_t>(a.id());
            if (plan.execs[idx] == 0)
                guided_left[idx] = 0; // guided execution aborts on failure
            if (guided_left[idx] > 0) {
                // Plan-guided multi-step execution (Rec. 7): follow the
                // standing plan without a fresh LLM call.
                plan.subgoals[idx] = a.chooseSubgoal(true, false, step);
                plan.sound[idx] = 1;
                --guided_left[idx];
                return;
            }
            PlanContext context;
            context.step = step;
            context.n_agents = n;
            context.compression = options.pipeline.context_compression;
            const PlanDecision decision = a.plan(step, context);
            plan.subgoals[idx] = decision.subgoal;
            plan.sound[idx] = decision.from_oracle;
            if (decision.from_oracle && plan_every > 1)
                guided_left[idx] = plan_every - 1;
            harness.recordTokens(step, a.id(), decision.prompt_tokens, 0);

            // Only talk when the plan decided it is needed.
            if (comm_during_planning && decision.wants_comm) {
                Message m = a.generateMessage(step, n);
                harness.countMessage(m.useful);
                broadcast(harness, m, step);
            }
        });
    });

    return harness.finish(success);
}

} // namespace ebs::core
