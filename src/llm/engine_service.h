#ifndef EBS_LLM_ENGINE_SERVICE_H
#define EBS_LLM_ENGINE_SERVICE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "llm/engine.h"
#include "llm/model_profile.h"
#include "sim/rng.h"

namespace ebs::obs {
class EpisodeTraceLog;
} // namespace ebs::obs

namespace ebs::llm {

class BackendQueueModel;
class EngineSession;
class LlmEngineService;

/**
 * Stable backend identity: a pure function of the full ModelProfile
 * (see backendId()), never a registration-order index, so
 * BatchRecord.backend and the cross-episode fold key are bit-identical
 * at any EBS_JOBS.
 */
using BackendId = std::uint64_t;

/**
 * The backend id of a profile: an FNV-1a hash over its name and every
 * other field. One backend per distinct profile — the GPT-4 API endpoint
 * and each local-GPU model are single shared resources, not per-agent
 * copies. Keying on the full profile means a quantized or
 * differently-calibrated variant (e.g. a workload-tweaked
 * reflect_quality) gets its own backend even under a reused name, so
 * batch groups never silently merge differently-calibrated models.
 */
BackendId backendId(const ModelProfile &profile);

/** Build-time switch of an LlmEngineService. */
struct ServiceConfig
{
    /**
     * Closed-loop serving: every session simulates finite-capacity
     * backends (llm/backend_queue.h, each with its profile's
     * defaultQueueConfig) and charges queueing + admission delay back to
     * its episode's clock through the takePendingCharge path. Off by
     * default: the open-loop path models infinite capacity.
     */
    bool queue = false;
};

/**
 * One assembled inference batch: every completion of one (episode step,
 * coordinator phase) that hit the same backend. `baseline_s` is what the
 * members cost as sequential calls (their individually sampled
 * latencies); `batched_s` is the modeled joint completion time (summed
 * prefill + longest decode + one mean RTT), clamped to never exceed the
 * baseline. The (step, phase, backend) key is what the cross-episode fold
 * merges on.
 */
struct BatchRecord
{
    int step = 0;            ///< episode step the batch was assembled in
    int phase = 0;           ///< flush index within the step
    BackendId backend = 0;   ///< profile-derived backend id (stable)
    int requests = 0;        ///< completions in the batch (occupancy)
    bool remote = false;     ///< backend pays an RTT per (batched) call
    double rtt_mean_s = 0.0; ///< backend's mean RTT (deterministic)
    double prefill_s = 0.0;  ///< summed prefill time of the members
    double max_decode_s = 0.0; ///< longest member decode time
    double baseline_s = 0.0; ///< sequential cost (sampled latency sum)
    double batched_s = 0.0;  ///< modeled joint completion time
    /** Episode sim-clock time at which the batch's phase flushed (the
     * batch's modeled arrival instant). Deterministic per seed; the
     * latency-aware cross-episode fold merges only records whose
     * arrival instants fall within one admission window. */
    double sim_time_s = 0.0;
    /** Summed (prompt + generated) tokens of the members: the group's
     * KV-cache footprint while it executes on a finite backend. */
    double kv_tokens = 0.0;
    /** Queueing + admission delay the backend queue charged the episode
     * for this group (0 on the open-loop, infinite-capacity path). */
    double queue_delay_s = 0.0;
};

/** Aggregated batching outcome over any set of BatchRecords. */
struct BatchStats
{
    long long batches = 0;
    long long requests = 0;
    long long cross_agent_batches = 0; ///< batches with occupancy > 1
    double baseline_s = 0.0;
    double batched_s = 0.0;
    double queue_delay_s = 0.0; ///< summed charged queueing delay

    /** Average completions per assembled batch (0 when empty). */
    double occupancy() const
    {
        return batches > 0 ? static_cast<double>(requests) / batches : 0.0;
    }

    /** Modeled latency saved versus sequential execution (>= 0). */
    double savedSeconds() const { return baseline_s - batched_s; }

    /** Saved fraction of the sequential cost, in [0, 1]. */
    double savedFraction() const
    {
        return baseline_s > 0.0 ? savedSeconds() / baseline_s : 0.0;
    }

    /** Charged queueing delay as a fraction of total charged serving
     * time (execution + queueing); 0 on the open-loop path. */
    double queueDelayShare() const
    {
        const double served = batched_s + queue_delay_s;
        return served > 0.0 ? queue_delay_s / served : 0.0;
    }

    void add(const BatchRecord &record);
    void merge(const BatchStats &other);
};

/**
 * A per-agent-module view onto the engine service, minted by an
 * EngineSession: the one way an LLM call is sampled and accounted.
 *
 * The handle keeps the module's RNG stream and usage counters (so
 * per-agent accounting and determinism are untouched) and routes every
 * completion through its session: the completion joins the session's
 * currently open batch group. Sampling is
 * sampleCompletion() on the handle's own stream, so the response stream
 * does not depend on what else the session batches. Handles are
 * episode-confined and single-threaded, like the agents that own them.
 */
class EngineHandle
{
  public:
    /** Run one completion (see class comment for routing). */
    LlmResponse complete(const LlmRequest &request);

    const LlmUsage &usage() const { return usage_; }

  private:
    friend class EngineSession;

    EngineHandle(EngineSession &session, ModelProfile profile, sim::Rng rng);

    EngineSession *session_; ///< never null; pointer keeps handles movable
    BackendId backend_;
    ModelProfile profile_;
    sim::Rng rng_;
    LlmUsage usage_;
};

/**
 * Episode-local port into the service: opened by
 * LlmEngineService::openSession(), owned by one coordinator harness,
 * used from one thread.
 *
 * The session mints EngineHandles, brackets the episode's step/phase
 * structure (beginStep()/flush()), and keeps the episode's BatchRecord
 * log. All completions issued between two flush points that hit the same
 * backend form one batch — coordinators flush at phase boundaries, so a
 * batch is "the planning calls of every agent this step", which is
 * exactly the paper's Recommendation 1 cross-agent batching. The log is
 * deterministic for a given episode seed regardless of how many other
 * episodes run concurrently, which is what makes the post-join
 * cross-episode fold (foldCrossEpisodeBatches) reproducible at any
 * EBS_JOBS.
 */
class EngineSession
{
  public:
    ~EngineSession();

    /**
     * Sessions are pinned: every EngineHandle holds a raw pointer back
     * to the session it was minted from, so moving a session would leave
     * its handles dangling. Construct the session at its final address
     * (the Harness in coordinator.cpp builds it in its member-init list)
     * and mint handles afterwards.
     */
    EngineSession(EngineSession &&) = delete;
    EngineSession &operator=(EngineSession &&) = delete;

    /** Mint a handle for one agent module (see EngineHandle). */
    EngineHandle handle(const ModelProfile &profile, sim::Rng stream);

    /**
     * True when this session simulates finite-capacity backends: each
     * flushed batch group is submitted to its backend's discrete-event
     * queue at the group's arrival instant (`setNow`), and the queueing
     * + admission delay joins the pending charge so the coordinator's
     * takePendingCharge path feeds contention back into the episode
     * clock. Implies charged serving: the coordinator withholds sampled
     * LLM latency and pays the queue-scheduled completion instead.
     */
    bool queueing() const { return queue_ != nullptr; }

    /** Mark the start of a global episode step (closes open groups). */
    void beginStep(int step);

    /** Episode sim-clock time stamped onto the BatchRecords of the next
     * flush (their modeled arrival instant). The coordinator harness
     * sets this right before every phase flush. */
    void setNow(double now_s) { now_s_ = now_s; }

    /** Close every open batch group (coordinators call this per phase). */
    void flush();

    /**
     * Sampled sequential latency of every completion noted since the
     * last flush (the summed `baseline_s` of the open groups): the
     * LLM-attributable share of the current phase.
     */
    double phaseBaseline() const;

    /**
     * Joint completion time (`jointBatchTime`) accumulated by the
     * groups flushed since the last take — what the phase's batches
     * cost the episode clock when `batch_llm_calls` charges for real.
     * Returns the accumulated sum and resets it; the harness claims it
     * at every flush point so each batch is charged exactly once.
     */
    double takePendingCharge();

    /**
     * Route flush-time trace instants (batch assembly, queue admission)
     * into an episode trace log (see obs/trace.h). nullptr — the default
     * — keeps flush() emission-free; the coordinator harness wires its
     * episode's log through here when tracing is enabled. The log must
     * outlive the session's last flush.
     */
    void traceTo(obs::EpisodeTraceLog *trace) { trace_ = trace; }

    /** Batches assembled so far (flushed groups only). */
    const std::vector<BatchRecord> &log() const { return log_; }

    /** Flush and surrender the batch log (for EpisodeResult). */
    std::vector<BatchRecord> takeLog();

  private:
    friend class EngineHandle;
    friend class LlmEngineService;

    explicit EngineSession(const ServiceConfig &config);

    /** Join `resp` to the open batch group of `backend`. */
    void note(BackendId backend, const ModelProfile &profile,
              const LlmResponse &resp);

    /** Episode trace log for flush-time instants; null (the default)
     * when tracing is off. Not owned. */
    obs::EpisodeTraceLog *trace_ = nullptr;
    /** Finite-capacity backend queues (closed-loop serving); null on
     * the open-loop path. Episode-confined like the session itself. */
    std::unique_ptr<BackendQueueModel> queue_;
    int step_ = 0;
    int phase_ = 0;
    double now_s_ = 0.0;           ///< arrival stamp for the next flush
    double pending_charge_s_ = 0.0; ///< flushed batched_s not yet claimed
    /** One open batch group per backend touched this phase, and each
     * group's profile name (its flush-time trace label). */
    std::vector<BatchRecord> open_;
    std::vector<std::string> open_names_;
    std::vector<BatchRecord> log_;
};

/**
 * The simulated LLM inference service (the tentpole of
 * Recommendation 1): an immutable ServiceConfig from which episodes open
 * their sessions. Everything stochastic stays in episode-confined
 * handles and every tally in the episode's own EpisodeResult (`llm`,
 * `llm_batches`), so the service holds no mutable state and any number
 * of concurrent episodes may share one instance.
 */
class LlmEngineService
{
  public:
    explicit LlmEngineService(ServiceConfig config = {}) : config_(config)
    {
    }

    /** Open an episode-local session (cheap; one per episode). */
    EngineSession openSession() const { return EngineSession(config_); }

    /** Open-loop default instance of EpisodeOptions and EpisodeJob. */
    static const LlmEngineService &shared();

  private:
    ServiceConfig config_;
};

/** Fold one episode's batch log into aggregate stats. */
BatchStats foldBatchLog(std::span<const BatchRecord> log);

/**
 * Model the cross-episode batching opportunity of a set of episodes that
 * ran concurrently on the EpisodeRunner pool: batches with the same
 * (step, phase, backend) key — the same pipeline stage of episodes
 * advancing in lockstep — merge into one super-batch with summed
 * prefill, the longest member decode, and a single RTT.
 *
 * This is a pure post-join fold over per-episode logs (the same pattern
 * as runner::foldEpisodes), so the result is bit-identical at any worker
 * count instead of depending on thread timing.
 */
BatchStats
foldCrossEpisodeBatches(std::span<const std::vector<BatchRecord>> logs);

/**
 * Latency-aware variant of the cross-episode fold: episodes only start
 * in lockstep — their clocks drift apart as steps diverge — so two
 * same-(step, phase, backend) batches can really share one joint
 * inference only if they arrive at the backend around the same time.
 * Records merge only when their modeled arrival instants
 * (`BatchRecord::sim_time_s`) fall within `window_s` seconds of the
 * arrival that opened the group (a backend admission window anchored at
 * the group's first-visited record; records are visited in
 * episode-submission order, so the anchor is deterministic).
 *
 * `window_s = infinity` reproduces the lockstep fold above exactly;
 * any finite window yields a partition refinement of the lockstep
 * merge, so its modeled savings are <= the lockstep savings — a
 * conservative estimate instead of a lockstep-optimistic one. The fold
 * stays pure and deterministic at any worker count (records are
 * visited in episode-submission order, clusters are keyed by the
 * stable batch key).
 */
BatchStats
foldCrossEpisodeBatches(std::span<const std::vector<BatchRecord>> logs,
                        double window_s);

} // namespace ebs::llm

#endif // EBS_LLM_ENGINE_SERVICE_H
