#include "core/coordinator.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/spec.h"
#include "obs/trace.h"
#include "stats/host_clock.h"
#include "stats/phase_wall.h"

namespace ebs::core {

namespace {

/**
 * Shared episode machinery: agent construction, per-phase latency
 * combination (sequential sum vs. parallel max), and result assembly.
 *
 * Phases come in two kinds, reflecting the compute/mutation split that
 * lets `parallel_agents` workloads run on real threads:
 *
 *  - computePhase(): *pure per-agent module evaluation* (sense, plan,
 *    message generation, reflection — each touches only its agent's own
 *    state plus const environment reads). The turns may execute
 *    concurrently on the episode's FleetScheduler; every shared-state
 *    effect — latency charges, LLM session accounting, token series,
 *    message counters — is buffered per agent and applied in a
 *    deterministic agent-index-ordered commit step, reproducing the
 *    exact operation sequence of a serial phase. Results are therefore
 *    bit-identical at any worker count.
 *
 *  - envPhase(): *environment-mutating* turns (execution, and any phase
 *    whose agents exchange state mid-phase). These run serially in
 *    agent-index order against the live environment — the ordered
 *    commit step of the episode's step pipeline.
 *
 *  - executePhase(): envPhase for the execute stage specifically, with
 *    an optimistic fast path (`speculative_execute`): agents run
 *    against private world snapshots on scheduler threads while
 *    read/write sets are logged, then commit serially in agent-index
 *    order — an agent whose read set is disjoint from every
 *    lower-indexed agent's write set keeps its speculative run (its
 *    world writes and buffered accounting are applied in order), while
 *    a conflicting, aborted, or non-speculable agent is rolled back and
 *    re-executes serially against the committed world. Since a clean
 *    agent's turn observed no state any predecessor changed, its run is
 *    the serial run; everything else *is* the serial schedule — so
 *    results are bit-identical to envPhase at any worker count, and the
 *    conflict/commit tallies themselves are worker-count-independent
 *    (the speculate/serialize decision depends only on the logs and the
 *    commit order, never on thread timing).
 */
class Harness
{
  public:
    Harness(env::Environment &environment, const AgentConfig &config,
            const EpisodeOptions &options)
        : env_(environment), options_(options),
          scheduler_(options.scheduler),
          master_rng_(options.seed),
          // The session is pinned (handles keep its address), so it is
          // built in place at its final location, before any agent mints
          // a handle on it.
          llm_session_(options.engine_service != nullptr
                           ? options.engine_service->openSession()
                           : llm::EngineSession()),
          // Rec. 1 end-to-end: the ablation charges real joint-batch
          // latency to the clock, which needs a session that actually
          // assembles batches. Without one (legacy path, or a service
          // built with batching=false) the switch is inert — there is
          // nothing to batch, so every call stays at its sequential cost.
          // A queueing session (finite-capacity backend serving,
          // llm/backend_queue.h) always charges: the closed loop *is*
          // the scheduled completion — joint batch time plus queueing +
          // admission delay — landing on the clock at every flush.
          charged_batching_(llm_session_.queueing() ||
                            (options.pipeline.batch_llm_calls &&
                             llm_session_.batching()))
    {
        // Dual-clock tracing: a null trace (the EBS_TRACE=0 default)
        // keeps every emission point below a single pointer check.
        trace_ = options.trace;
        if (trace_ != nullptr)
            llm_session_.traceTo(trace_);
        const int n = env_.world().agentCount();
        for (int i = 0; i < n; ++i) {
            agents_.push_back(std::make_unique<Agent>(
                i, config, &env_, master_rng_.fork(100 + i), &clock_,
                &recorder_, nullptr, &llm_session_));
        }
        scratch_.resize(agents_.size());
        notes_.resize(agents_.size());
        for (auto &recorder : scratch_)
            recorder.enableEventLog();
    }

    std::vector<std::unique_ptr<Agent>> &agents() { return agents_; }
    Agent &agent(int i) { return *agents_[static_cast<std::size_t>(i)]; }
    int agentCount() const { return static_cast<int>(agents_.size()); }
    sim::Rng &rng() { return master_rng_; }
    sim::SimClock &clock() { return clock_; }
    stats::LatencyRecorder &recorder() { return recorder_; }

    int
    maxSteps() const
    {
        return options_.max_steps_override > 0 ? options_.max_steps_override
                                               : env_.task().maxSteps();
    }

    /**
     * Mint an engine handle on the episode's service session (a private
     * engine when the episode runs serviceless) — for the central planner
     * and cluster leads, whose calls then join the session's batches.
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

    /** True when per-agent compute fans out on scheduler threads. A
     * single-worker pool stays inline: there is no concurrency to win,
     * and the EBS_JOBS=1 baseline must keep the episode entirely on the
     * calling thread (results are bit-identical either way — this gate
     * is purely about dispatch overhead). */
    bool
    parallelPhases() const
    {
        return scheduler_ != nullptr && scheduler_->workers() > 1 &&
               options_.pipeline.parallel_agents && agents_.size() > 1;
    }

    /**
     * Run a pure-compute phase: `compute(agent)` once per agent
     * (concurrently when parallelPhases()), then `commit(agent)` once
     * per agent serially in agent-index order. `compute` must only
     * touch its agent's state, per-agent slots, and const environment
     * reads; everything order-sensitive belongs in `commit`.
     *
     * The buffered accounting is replayed event-by-event in agent-index
     * order, so the episode recorder, the LLM session's batch assembly,
     * and the phase's clock advance are bit-identical to a serial phase
     * — this is what keeps `parallel_agents` results independent of
     * EBS_JOBS. The phase boundary is also the batch boundary: every
     * same-backend LLM call the agents issued inside `compute` forms one
     * cross-agent batch.
     */
    template <typename Compute, typename Commit>
    void
    computePhase(const char *name, Compute &&compute, Commit &&commit)
    {
        const double host_begin = stats::hostNow();
        if (trace_ != nullptr)
            trace_->beginSpan("phase", name, clock_.now(), host_begin);
        const std::size_t n = agents_.size();
        for (std::size_t i = 0; i < n; ++i) {
            scratch_[i].reset();
            notes_[i].entries.clear();
            agents_[i]->beginBufferedTurn(&scratch_[i], &notes_[i]);
        }
        try {
            if (parallelPhases()) {
                scheduler_->parallelFor(
                    n, [&](std::size_t i) { compute(*agents_[i]); });
            } else {
                for (std::size_t i = 0; i < n; ++i)
                    compute(*agents_[i]);
            }
        } catch (...) {
            for (std::size_t i = 0; i < n; ++i)
                agents_[i]->endBufferedTurn();
            throw;
        }

        double total = 0.0;
        double longest = 0.0;
        double llm_total = 0.0;
        double nonllm_longest = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            agents_[i]->endBufferedTurn();
            const double before = recorder_.grandTotal();
            for (const auto &event : scratch_[i].events())
                recorder_.record(event.kind, event.seconds);
            llm_session_.replay(notes_[i]);
            const double delta = recorder_.grandTotal() - before;
            total += delta;
            longest = std::max(longest, delta);
            // The agent's sampled LLM latency this phase, read from the
            // same buffered notes the session replay consumes — when the
            // batch ablation charges jointBatchTime at the flush, this
            // share is withheld from the phase's own clock advance.
            double llm = 0.0;
            for (const auto &entry : notes_[i].entries)
                llm += entry.resp.latency_s;
            llm_total += llm;
            nonllm_longest =
                std::max(nonllm_longest, std::max(0.0, delta - llm));
            commit(*agents_[i]);
        }
        flushLlm();
        advanceBy(total, longest, llm_total, nonllm_longest);
        const double host_end = stats::hostNow();
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now(), host_end);
        options_.phase_wall->addCompute(host_end - host_begin);
    }

    /** computePhase() with no per-agent commit step. */
    template <typename Compute>
    void
    computePhase(const char *name, Compute &&compute)
    {
        computePhase(name, std::forward<Compute>(compute), [](Agent &) {});
    }

    /**
     * Run an environment-mutating phase: `turn` once per agent, serially
     * in agent-index order against the live environment, measuring each
     * agent's latency contribution; advance the clock by the sum
     * (sequential pipeline) or the max (parallel execution across
     * agents). This is the deterministic ordered commit step for env
     * writes — execution must see the world as left by lower-index
     * agents of the same step, exactly as the serial pipeline defines.
     */
    template <typename Fn>
    void
    envPhase(const char *name, Fn &&turn)
    {
        const double host_begin = stats::hostNow();
        if (trace_ != nullptr)
            trace_->beginSpan("phase", name, clock_.now(), host_begin);
        double total = 0.0;
        double longest = 0.0;
        double llm_total = 0.0;
        double nonllm_longest = 0.0;
        for (auto &agent : agents_) {
            const double before = recorder_.grandTotal();
            const double llm_before = llm_session_.phaseBaseline();
            turn(*agent);
            const double delta = recorder_.grandTotal() - before;
            // Env-phase turns note their completions into the session
            // live, so the turn's sampled LLM share is the growth of the
            // open groups' sequential baseline.
            const double llm = llm_session_.phaseBaseline() - llm_before;
            total += delta;
            longest = std::max(longest, delta);
            llm_total += llm;
            nonllm_longest =
                std::max(nonllm_longest, std::max(0.0, delta - llm));
        }
        flushLlm();
        advanceBy(total, longest, llm_total, nonllm_longest);
        const double host_end = stats::hostNow();
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now(), host_end);
        options_.phase_wall->addExecute(host_end - host_begin);
    }

    /**
     * True when the execute phase runs the speculative protocol. The gate
     * is deliberately independent of worker count: a single-worker pool
     * still speculates (inline), so every tally and stdout metric is
     * identical across EBS_JOBS values — only host wall-clock moves.
     */
    bool
    speculativeExecute() const
    {
        return options_.pipeline.speculative_execute &&
               agents_.size() > 1 && env_.speculativeExecuteSafe();
    }

    /**
     * Run the execute phase: envPhase semantics (turns observe the world
     * as left by lower-indexed agents of the same step; clock advances
     * identically), executed optimistically when speculativeExecute().
     * See the class comment for the protocol and determinism argument.
     */
    template <typename Fn>
    void
    executePhase(const char *name, Fn &&turn)
    {
        if (!speculativeExecute()) {
            envPhase(name, std::forward<Fn>(turn));
            return;
        }
        const double host_begin = stats::hostNow();
        if (trace_ != nullptr)
            trace_->beginSpan("phase", name, clock_.now(), host_begin);
        const std::size_t n = agents_.size();
        ensureSpecSlots();

        // --- Stage 1: speculate every eligible turn against a private
        // copy of the phase-start world, logging its read/write sets and
        // buffering its accounting (latency events, LLM notes, belief
        // invalidations). Tasks are independent by construction — each
        // touches its own agent, snapshot, and slots — so the fan-out
        // needs no ordering and any interleaving yields the same logs.
        auto speculate = [&](std::size_t i) {
            Agent &a = *agents_[i];
            spec_logs_[i].reset();
            spec_invalidated_[i].clear();
            spec_ran_[i] = 0;
            exec_states_[i] = a.saveExecState();
            // LLM-direct execution draws on shared engine-service state
            // that cannot be rolled back after a discarded run; those
            // agents take the serial lane below.
            if (!a.config().has_execution)
                return;
            if (spec_worlds_[i] == nullptr)
                spec_worlds_[i] =
                    std::make_unique<env::World>(env_.world());
            else
                *spec_worlds_[i] = env_.world();
            spec_worlds_[i]->setAccessLog(&spec_logs_[i]);
            scratch_[i].reset();
            notes_[i].entries.clear();
            a.beginBufferedTurn(&scratch_[i], &notes_[i]);
            a.deferBeliefInvalidations(&spec_invalidated_[i]);
            try {
                env::spec::SpeculationScope scope(&env_,
                                                  spec_worlds_[i].get());
                turn(a);
                spec_ran_[i] = 1;
            } catch (...) {
                a.deferBeliefInvalidations(nullptr);
                a.endBufferedTurn();
                spec_worlds_[i]->setAccessLog(nullptr);
                a.restoreExecState(exec_states_[i]);
                throw;
            }
            a.deferBeliefInvalidations(nullptr);
            a.endBufferedTurn();
            spec_worlds_[i]->setAccessLog(nullptr);
        };
        if (scheduler_ != nullptr && scheduler_->workers() > 1) {
            scheduler_->parallelFor(n, speculate);
        } else {
            for (std::size_t i = 0; i < n; ++i)
                speculate(i);
        }

        // --- Stage 2: serial commit in agent-index order. Clean agents
        // apply their buffered effects; everyone else rolls back and
        // re-executes against the live (committed) world — which *is*
        // the serial schedule for them.
        double total = 0.0;
        double longest = 0.0;
        double llm_total = 0.0;
        double nonllm_longest = 0.0;
        double clean_longest = 0.0;
        double serial_sum = 0.0;
        std::vector<env::spec::AccessKey> committed_writes;
        env::spec::AccessLog rerun_log;
        for (std::size_t i = 0; i < n; ++i) {
            Agent &a = *agents_[i];
            ++spec_stats_.turns;
            spec_logs_[i].finalize();
            bool clean = false;
            if (spec_ran_[i] != 0) {
                ++spec_stats_.speculated;
                if (spec_logs_[i].aborted())
                    ++spec_stats_.aborted;
                else if (env::spec::conflicts(spec_logs_[i].reads(),
                                              committed_writes))
                    ++spec_stats_.conflicts;
                else
                    clean = true;
            }

            double delta = 0.0;
            double llm = 0.0;
            if (clean) {
                ++spec_stats_.committed;
                // Replay the buffered accounting in index order — the
                // same commit discipline computePhase uses, so recorder
                // and session state are bit-identical to a serial phase.
                const double before = recorder_.grandTotal();
                for (const auto &event : scratch_[i].events())
                    recorder_.record(event.kind, event.seconds);
                llm_session_.replay(notes_[i]);
                delta = recorder_.grandTotal() - before;
                for (const auto &entry : notes_[i].entries)
                    llm += entry.resp.latency_s;
                for (const env::ObjectId id : spec_invalidated_[i])
                    a.memory().invalidate(id);
                commitWrites(i, committed_writes);
                clean_longest = std::max(clean_longest, delta);
            } else {
                // Serial lane: roll the agent back and run its turn for
                // real, with envPhase-identical accounting. Its writes
                // are logged on the live world so later agents still
                // validate against them.
                a.restoreExecState(exec_states_[i]);
                rerun_log.reset();
                serial_pos_.clear();
                for (const env::AgentBody &body : env_.world().bodies())
                    serial_pos_.push_back(body.pos);
                env_.world().setAccessLog(&rerun_log);
                const double before = recorder_.grandTotal();
                const double llm_before = llm_session_.phaseBaseline();
                try {
                    turn(a);
                } catch (...) {
                    env_.world().setAccessLog(nullptr);
                    throw;
                }
                env_.world().setAccessLog(nullptr);
                delta = recorder_.grandTotal() - before;
                llm = llm_session_.phaseBaseline() - llm_before;
                rerun_log.finalize();
                env::spec::mergeKeys(committed_writes, rerun_log.writes());
                occ_scratch_.clear();
                const auto &bodies = env_.world().bodies();
                for (std::size_t j = 0; j < bodies.size(); ++j) {
                    if (bodies[j].pos == serial_pos_[j])
                        continue;
                    occ_scratch_.push_back(
                        env::spec::cellKey(serial_pos_[j]));
                    occ_scratch_.push_back(
                        env::spec::cellKey(bodies[j].pos));
                }
                std::sort(occ_scratch_.begin(), occ_scratch_.end());
                env::spec::mergeKeys(committed_writes, occ_scratch_);
                serial_sum += delta;
            }
            if (trace_ != nullptr) {
                // Commit-vs-reexec outcome of this agent's turn — decided
                // deterministically by the logs and the commit order, so
                // the instant stream is EBS_JOBS-independent like the
                // tallies it mirrors.
                const char *outcome =
                    spec_ran_[i] == 0 ? "spec.serial"
                    : clean           ? "spec.commit"
                    : spec_logs_[i].aborted() ? "spec.abort"
                                              : "spec.conflict";
                trace_->instant("spec", outcome, clock_.now(),
                                static_cast<int>(i),
                                {{"latency_s", delta}});
            }
            total += delta;
            longest = std::max(longest, delta);
            llm_total += llm;
            nonllm_longest =
                std::max(nonllm_longest, std::max(0.0, delta - llm));
        }
        spec_stats_.exec_total_s += total;
        spec_stats_.exec_critical_s += clean_longest + serial_sum;
        flushLlm();
        advanceBy(total, longest, llm_total, nonllm_longest);
        const double host_end = stats::hostNow();
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now(), host_end);
        options_.phase_wall->addExecute(host_end - host_begin);
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
        const double host_begin = stats::hostNow();
        if (trace_ != nullptr)
            trace_->beginSpan("phase", name, clock_.now(), host_begin);
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
        const double host_end = stats::hostNow();
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now(), host_end);
        options_.phase_wall->addCompute(host_end - host_begin);
    }

    /** Finish bookkeeping for one global step; true when episode is over. */
    bool
    stepDone(EpisodeResult &result, int step)
    {
        if (trace_ != nullptr)
            trace_->endSpan(clock_.now()); // the step bracket (setSteps)
        result.steps = step + 1;
        result.final_progress = env_.task().progress(env_.world());
        return env_.task().satisfied(env_.world());
    }

    EpisodeResult
    finish(bool success, const llm::LlmUsage &extra = {})
    {
        EpisodeResult result = partial_;
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
        fillMetrics(result);
        options_.phase_wall->addEpisode();
        return result;
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

    const PipelineOptions &pipeline() const { return options_.pipeline; }

  private:
    /**
     * Advance the episode clock for one phase. `total`/`longest` cover
     * every charge of the phase (per-agent sums and max); `llm_total` is
     * the sampled-LLM share of `total` and `nonllm_longest` the max over
     * agents of their non-LLM share.
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
    advanceBy(double total, double longest, double llm_total,
              double nonllm_longest)
    {
        if (charged_batching_) {
            const double nonllm_total = std::max(0.0, total - llm_total);
            if (options_.pipeline.parallel_agents) {
                const double slowest =
                    std::min(nonllm_longest, nonllm_total);
                clock_.advance(slowest + 0.15 * (nonllm_total - slowest));
            } else {
                clock_.advance(nonllm_total);
            }
            return;
        }
        if (options_.pipeline.parallel_agents) {
            clock_.advance(longest + 0.15 * (total - longest));
        } else {
            clock_.advance(total);
        }
    }

    /**
     * Populate the episode's typed metrics registry from the tallies
     * the rest of finish() assembled. Always on (a handful of map
     * inserts per episode, nowhere near a hot path); every source value
     * is already worker-count-independent, so the registry folds
     * through runner::RunStats like the existing tallies.
     */
    void
    fillMetrics(EpisodeResult &result) const
    {
        obs::MetricSet &m = result.metrics;
        m.add("episode.count");
        m.add("episode.steps", result.steps);
        m.add("episode.success", result.success ? 1 : 0);
        m.add("episode.messages", result.messages_generated);
        m.add("episode.messages_useful", result.messages_useful);
        m.add("llm.calls", static_cast<long long>(result.llm.calls));
        m.add("spec.turns", spec_stats_.turns);
        m.add("spec.speculated", spec_stats_.speculated);
        m.add("spec.committed", spec_stats_.committed);
        m.add("spec.conflicts", spec_stats_.conflicts);
        m.add("spec.aborted", spec_stats_.aborted);
        m.gaugeMax("episode.max_sim_seconds", result.sim_seconds);
        static constexpr double kOccupancyBounds[] = {1, 2, 4, 8, 16, 32};
        static constexpr double kDelayBounds[] = {0.1, 0.5, 2.0, 10.0,
                                                  60.0};
        for (const auto &batch : result.llm_batches) {
            m.add("llm.batches");
            m.add("llm.batched_requests", batch.requests);
            m.observe("llm.batch_occupancy", batch.requests,
                      kOccupancyBounds);
            m.gaugeMax("llm.max_batch_kv_tokens", batch.kv_tokens);
            if (llm_session_.queueing())
                m.observe("llm.queue_delay_s", batch.queue_delay_s,
                          kDelayBounds);
        }
    }

    /** Size the per-agent speculation slots on first use, so episodes
     * that never speculate pay nothing for the subsystem. */
    void
    ensureSpecSlots()
    {
        if (!spec_ran_.empty())
            return;
        const std::size_t n = agents_.size();
        spec_worlds_.resize(n);
        spec_logs_.resize(n);
        exec_states_.resize(n);
        spec_invalidated_.resize(n);
        spec_ran_.resize(n, 0);
    }

    /**
     * Apply a clean speculative turn's world writes — full-entity copies
     * from its snapshot, in the log's sorted key order — to the live
     * world, and fold its write keys plus the occupancy cells its body
     * moves vacated/claimed into the phase's committed write set.
     */
    void
    commitWrites(std::size_t i,
                 std::vector<env::spec::AccessKey> &committed)
    {
        env::World &live = env_.world();
        const env::World &snap = *spec_worlds_[i];
        occ_scratch_.clear();
        for (const env::spec::AccessKey key : spec_logs_[i].writes()) {
            switch (env::spec::keyKind(key)) {
              case env::spec::kKindObject: {
                const env::ObjectId id = env::spec::keyId(key);
                live.object(id) = snap.object(id);
                break;
              }
              case env::spec::kKindAgent: {
                const int id = env::spec::keyId(key);
                const env::Vec2i before = live.agent(id).pos;
                const env::Vec2i after = snap.agent(id).pos;
                if (!(before == after)) {
                    occ_scratch_.push_back(env::spec::cellKey(before));
                    occ_scratch_.push_back(env::spec::cellKey(after));
                }
                live.agent(id) = snap.agent(id);
                break;
              }
              default:
                // Cell / all-objects keys never appear as log writes.
                break;
            }
        }
        env::spec::mergeKeys(committed, spec_logs_[i].writes());
        std::sort(occ_scratch_.begin(), occ_scratch_.end());
        env::spec::mergeKeys(committed, occ_scratch_);
    }

    env::Environment &env_;
    EpisodeOptions options_;
    /** Episode trace log (null = tracing off; see EpisodeOptions). */
    obs::EpisodeTraceLog *trace_ = nullptr;
    sched::FleetScheduler *scheduler_;
    sim::Rng master_rng_;
    sim::SimClock clock_;
    stats::LatencyRecorder recorder_;
    llm::EngineSession llm_session_; ///< must outlive agents_ (handles)
    /** True when `batch_llm_calls` charges real joint-batch latency to
     * the clock: the ablation is on AND the session assembles batches. */
    const bool charged_batching_;
    std::vector<std::unique_ptr<Agent>> agents_;
    /** Per-agent phase buffers (reused each computePhase). */
    std::vector<stats::LatencyRecorder> scratch_;
    std::vector<llm::DeferredNotes> notes_;
    EpisodeResult partial_;
    /** Speculative-execute slots, lazily sized by ensureSpecSlots().
     * spec_worlds_ holds reusable snapshot buffers (copy-assigned from
     * the live world each speculated phase, so allocations amortize). */
    std::vector<std::unique_ptr<env::World>> spec_worlds_;
    std::vector<env::spec::AccessLog> spec_logs_;
    std::vector<Agent::ExecState> exec_states_;
    std::vector<std::vector<env::ObjectId>> spec_invalidated_;
    std::vector<char> spec_ran_;
    /** Commit-loop scratch (reused across phases). */
    std::vector<env::Vec2i> serial_pos_;
    std::vector<env::spec::AccessKey> occ_scratch_;
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
    Harness harness(environment, config, options);
    Agent &agent = harness.agent(0);

    const int plan_every = std::max(1, options.pipeline.plan_every_k);
    int guided_steps_left = 0; // plan-guided multi-step execution (Rec. 7)
    bool success = false;

    for (int step = 0; step < harness.maxSteps(); ++step) {
        environment.beginStep();
        harness.setSteps(step + 1);

        harness.computePhase("sense", [&](Agent &a) { a.sense(step); });

        env::Subgoal subgoal;
        bool plan_sound = true;
        bool skipped_plan = false;
        if (guided_steps_left > 0) {
            // Follow the standing plan without a fresh LLM call.
            subgoal = agent.chooseSubgoal(true, false, step);
            --guided_steps_left;
            skipped_plan = true;
        } else {
            PlanContext context;
            context.step = step;
            context.n_agents = 1;
            context.compression = options.pipeline.context_compression;
            PlanDecision decision;
            harness.computePhase(
                "plan", [&](Agent &a) { decision = a.plan(step, context); });
            subgoal = decision.subgoal;
            plan_sound = decision.from_oracle;
            harness.recordTokens(step, 0, decision.prompt_tokens, 0);
            if (decision.from_oracle && plan_every > 1)
                guided_steps_left = plan_every - 1;
        }

        ExecResult exec;
        harness.executePhase(
            "execute", [&](Agent &a) { exec = a.execute(step, subgoal); });
        harness.computePhase("reflect", [&](Agent &a) {
            a.reflect(step, subgoal, exec, plan_sound);
        });
        if (!exec.success)
            guided_steps_left = 0; // guided execution aborts on failure

        if (skipped_plan)
            harness.recordTokens(step, 0, 0, 0);

        EpisodeResult probe;
        if (harness.stepDone(probe, step)) {
            success = true;
            break;
        }
    }

    return harness.finish(success);
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
    bool success = false;

    for (int step = 0; step < harness.maxSteps(); ++step) {
        environment.beginStep();
        harness.setSteps(step + 1);

        harness.computePhase("sense", [&](Agent &a) { a.sense(step); });

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

        // Each agent follows its instruction; a bad joint plan still gets
        // parts right (per-agent partial correctness), and feedback flows
        // back to the central context. The shared-stream coin flips are
        // pre-drawn in agent-index order (the exact sequence the serial
        // pipeline consumed) so the subgoal choice itself is pure
        // per-agent compute.
        std::vector<char> pre_good(static_cast<std::size_t>(n));
        std::vector<char> pre_hallucinate(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            const bool agent_good =
                good || harness.rng().bernoulli(0.25);
            const bool hallucinate =
                !agent_good &&
                harness.rng().bernoulli(config.hallucination_rate);
            pre_good[static_cast<std::size_t>(i)] = agent_good;
            pre_hallucinate[static_cast<std::size_t>(i)] = hallucinate;
        }

        std::vector<env::Subgoal> subgoals(static_cast<std::size_t>(n));
        std::vector<char> sound(static_cast<std::size_t>(n), 1);
        harness.computePhase("plan.apply", [&](Agent &a) {
            const auto idx = static_cast<std::size_t>(a.id());
            sound[idx] = pre_good[idx];
            subgoals[idx] = a.chooseSubgoal(pre_good[idx] != 0,
                                            pre_hallucinate[idx] != 0, step);
        });

        std::vector<ExecResult> execs(static_cast<std::size_t>(n));
        harness.executePhase("execute", [&](Agent &a) {
            execs[static_cast<std::size_t>(a.id())] =
                a.execute(step, subgoals[static_cast<std::size_t>(a.id())]);
        });
        harness.computePhase("reflect", [&](Agent &a) {
            const auto &exec = execs[static_cast<std::size_t>(a.id())];
            a.reflect(step, subgoals[static_cast<std::size_t>(a.id())],
                      exec, sound[static_cast<std::size_t>(a.id())] != 0);
        });

        // Local feedback: ~40 tokens per agent per step accumulate in the
        // central planner's context.
        dialogue_tokens += 40 * n;

        EpisodeResult probe;
        if (harness.stepDone(probe, step)) {
            success = true;
            break;
        }
    }

    llm::LlmUsage extra = central.usage();
    extra += central_comm.usage();
    return harness.finish(success, extra);
}

EpisodeResult
runHierarchical(env::Environment &environment, const AgentConfig &config,
                const EpisodeOptions &options, int cluster_size)
{
    Harness harness(environment, config, options);
    const int n = harness.agentCount();
    const int k = std::max(1, cluster_size);
    const int clusters = (n + k - 1) / k;
    auto cluster_of = [&](int agent_id) { return agent_id / k; };

    // One planning stream per cluster lead, all on the shared service —
    // the per-cluster joint plans are independent, so they assemble into
    // one cross-cluster batch per step.
    std::vector<llm::EngineHandle> leads;
    leads.reserve(static_cast<std::size_t>(clusters));
    for (int c = 0; c < clusters; ++c)
        leads.push_back(harness.makeHandle(config.planner_model,
                                           harness.rng().fork(700 + c)));
    bool success = false;

    for (int step = 0; step < harness.maxSteps(); ++step) {
        environment.beginStep();
        harness.setSteps(step + 1);

        harness.computePhase("sense", [&](Agent &a) { a.sense(step); });

        // Cross-cluster coordination: one message per cluster lead,
        // broadcast to the other leads (bounded, not quadratic in n).
        // Generation is pure per-lead compute; counting and delivery are
        // the ordered commit.
        if (config.has_communication && clusters > 1) {
            std::vector<Message> outbox;
            std::vector<Message> generated(static_cast<std::size_t>(n));
            harness.computePhase(
                "comm.leads",
                [&](Agent &a) {
                    if (a.id() % k != 0)
                        return; // only cluster leads speak
                    generated[static_cast<std::size_t>(a.id())] =
                        a.generateMessage(step, clusters);
                },
                [&](Agent &a) {
                    if (a.id() % k != 0)
                        return;
                    Message &m =
                        generated[static_cast<std::size_t>(a.id())];
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

        // Pre-draw the shared-stream coin flips in agent-index order
        // (see runCentralized); the subgoal choice is then pure compute.
        std::vector<char> pre_good(static_cast<std::size_t>(n));
        std::vector<char> pre_hallucinate(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            const bool agent_good =
                cluster_good[static_cast<std::size_t>(cluster_of(i))] !=
                    0 ||
                harness.rng().bernoulli(0.25);
            const bool hallucinate =
                !agent_good &&
                harness.rng().bernoulli(config.hallucination_rate);
            pre_good[static_cast<std::size_t>(i)] = agent_good;
            pre_hallucinate[static_cast<std::size_t>(i)] = hallucinate;
        }

        std::vector<env::Subgoal> subgoals(static_cast<std::size_t>(n));
        std::vector<char> sound(static_cast<std::size_t>(n), 1);
        harness.computePhase("plan.apply", [&](Agent &a) {
            const auto idx = static_cast<std::size_t>(a.id());
            sound[idx] = pre_good[idx];
            subgoals[idx] = a.chooseSubgoal(pre_good[idx] != 0,
                                            pre_hallucinate[idx] != 0, step);
        });

        std::vector<ExecResult> execs(static_cast<std::size_t>(n));
        harness.executePhase("execute", [&](Agent &a) {
            execs[static_cast<std::size_t>(a.id())] =
                a.execute(step, subgoals[static_cast<std::size_t>(a.id())]);
        });
        harness.computePhase("reflect", [&](Agent &a) {
            const auto idx = static_cast<std::size_t>(a.id());
            a.reflect(step, subgoals[idx], execs[idx], sound[idx] != 0);
        });

        EpisodeResult probe;
        if (harness.stepDone(probe, step)) {
            success = true;
            break;
        }
    }

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
    const int plan_every = std::max(1, options.pipeline.plan_every_k);
    std::vector<int> guided_left(static_cast<std::size_t>(n), 0);
    bool success = false;

    for (int step = 0; step < harness.maxSteps(); ++step) {
        environment.beginStep();
        harness.setSteps(step + 1);

        harness.computePhase("sense", [&](Agent &a) { a.sense(step); });

        // Dialogue: in the default pipeline, every agent pre-generates a
        // message every step (the paper's observed inefficiency), in
        // turn-taking rounds that grow with the team size. Messages are
        // delivered after the round, so generation is pure per-agent
        // compute; counting/recording is the ordered commit.
        if (config.has_communication && !options.pipeline.comm_on_demand) {
            const int rounds = 1 + (n - 1) / 4;
            for (int round = 0; round < rounds; ++round) {
                std::vector<Message> outbox(static_cast<std::size_t>(n));
                harness.computePhase(
                    "comm.dialogue",
                    [&](Agent &a) {
                        outbox[static_cast<std::size_t>(a.id())] =
                            a.generateMessage(step, n);
                    },
                    [&](Agent &a) {
                        const auto &m =
                            outbox[static_cast<std::size_t>(a.id())];
                        harness.countMessage(m.useful);
                        harness.recordTokens(step, a.id(), 0,
                                             a.lastMessageTokens());
                    });
                for (const auto &m : outbox)
                    broadcast(harness, m, step);
            }
        }

        // Independent planning with teammate-intent complexity.
        std::vector<env::Subgoal> subgoals(static_cast<std::size_t>(n));
        std::vector<char> sound(static_cast<std::size_t>(n), 1);
        const bool comm_during_planning =
            config.has_communication && options.pipeline.comm_on_demand;
        if (comm_during_planning) {
            // Planning-then-communication (Rec. 8): an agent's plan may
            // broadcast immediately, and later agents plan *with* that
            // message in memory — a genuine cross-agent dependency chain,
            // so this phase stays serial in agent-index order.
            harness.envPhase("plan.comm", [&](Agent &a) {
                const auto idx = static_cast<std::size_t>(a.id());
                if (guided_left[idx] > 0) {
                    // Plan-guided multi-step execution (Rec. 7): follow
                    // the standing plan without a fresh LLM call.
                    subgoals[idx] = a.chooseSubgoal(true, false, step);
                    sound[idx] = 1;
                    --guided_left[idx];
                    return;
                }
                PlanContext context;
                context.step = step;
                context.n_agents = n;
                context.compression = options.pipeline.context_compression;
                const PlanDecision decision = a.plan(step, context);
                subgoals[idx] = decision.subgoal;
                sound[idx] = decision.from_oracle;
                if (decision.from_oracle && plan_every > 1)
                    guided_left[idx] = plan_every - 1;
                harness.recordTokens(step, a.id(), decision.prompt_tokens,
                                     0);

                // Only talk when the plan decided it is needed.
                if (decision.wants_comm) {
                    Message m = a.generateMessage(step, n);
                    harness.countMessage(m.useful);
                    broadcast(harness, m, step);
                }
            });
        } else {
            // No mid-phase message flow: planning is pure per-agent
            // compute (memory retrieval, one LLM call, subgoal choice).
            std::vector<int> prompt_tokens(static_cast<std::size_t>(n),
                                           -1); // -1 = guided, no call
            harness.computePhase(
                "plan",
                [&](Agent &a) {
                    const auto idx = static_cast<std::size_t>(a.id());
                    if (guided_left[idx] > 0) {
                        // Plan-guided multi-step execution (Rec. 7).
                        subgoals[idx] = a.chooseSubgoal(true, false, step);
                        sound[idx] = 1;
                        --guided_left[idx];
                        return;
                    }
                    PlanContext context;
                    context.step = step;
                    context.n_agents = n;
                    context.compression =
                        options.pipeline.context_compression;
                    const PlanDecision decision = a.plan(step, context);
                    subgoals[idx] = decision.subgoal;
                    sound[idx] = decision.from_oracle;
                    if (decision.from_oracle && plan_every > 1)
                        guided_left[idx] = plan_every - 1;
                    prompt_tokens[idx] = decision.prompt_tokens;
                },
                [&](Agent &a) {
                    const auto idx = static_cast<std::size_t>(a.id());
                    if (prompt_tokens[idx] >= 0)
                        harness.recordTokens(step, a.id(),
                                             prompt_tokens[idx], 0);
                });
        }

        std::vector<ExecResult> execs(static_cast<std::size_t>(n));
        harness.executePhase("execute", [&](Agent &a) {
            execs[static_cast<std::size_t>(a.id())] =
                a.execute(step, subgoals[static_cast<std::size_t>(a.id())]);
        });
        harness.computePhase("reflect", [&](Agent &a) {
            const auto idx = static_cast<std::size_t>(a.id());
            a.reflect(step, subgoals[idx], execs[idx], sound[idx] != 0);
            if (!execs[idx].success)
                guided_left[idx] = 0; // guided execution aborts on failure
        });

        EpisodeResult probe;
        if (harness.stepDone(probe, step)) {
            success = true;
            break;
        }
    }

    return harness.finish(success);
}

} // namespace ebs::core
