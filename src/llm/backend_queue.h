#ifndef EBS_LLM_BACKEND_QUEUE_H
#define EBS_LLM_BACKEND_QUEUE_H

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "llm/engine_service.h"
#include "llm/model_profile.h"

namespace ebs::llm {

/**
 * Finite-capacity serving model of one inference backend (the closed-loop
 * complement of the open-loop `jointBatchTime` cost model).
 *
 * The abstraction is the standard continuous-batching serving loop
 * (vLLM-style): the backend runs a batch of at most `slots` concurrent
 * requests whose summed KV-cache footprint stays within
 * `kv_budget_tokens`, and *admission happens at iteration boundaries* —
 * a waiting request joins the running batch at the next multiple of
 * `iteration_s` at which a slot and enough KV budget are free, otherwise
 * it waits in a FIFO arrival queue. Requests never overtake each other
 * (FIFO admission), so the schedule is a pure function of the arrival
 * sequence.
 */
struct QueueConfig
{
    /** Maximum concurrently executing requests (the running batch). */
    int slots = 4;
    /** KV-cache/memory budget: summed (prompt + generated) tokens of
     * the running batch may not exceed this. */
    double kv_budget_tokens = 32768.0;
    /** Iteration boundary granularity: admission instants are quantized
     * to multiples of this (continuous batching admits at iteration
     * boundaries, not at arbitrary instants). */
    double iteration_s = 0.25;

    /**
     * Reject degenerate configurations loudly: zero slots or a
     * non-positive KV budget can never admit anything (the queue would
     * grow without bound), and a non-positive iteration has no
     * boundaries to admit at. Throws std::invalid_argument.
     */
    void validate() const;
};

/**
 * Deterministic per-profile default capacity — a pure function of the
 * profile, so every session (and the post-join bench replay) derives the
 * same config for the same backend at any worker count. Remote API
 * endpoints model a pooled, many-replica service (many slots, large
 * aggregate KV budget); local single-GPU models get a single card's
 * worth of concurrent decode slots and KV cache.
 */
QueueConfig defaultQueueConfig(const ModelProfile &profile);

/** Outcome of submitting one batch group to a backend queue. */
struct QueueAdmission
{
    /** When the group's last member joined the running batch. */
    double admit_s = 0.0;
    /** When the group's last member finished executing. */
    double complete_s = 0.0;
    /**
     * The delay charged to the submitting episode beyond the open-loop
     * joint batch time: last-member completion minus (arrival +
     * service). Includes both FIFO queueing behind earlier requests and
     * the iteration-boundary admission quantization; >= 0 always.
     */
    double queue_delay_s = 0.0;
};

/** Aggregate serving tallies of one backend queue. */
struct QueueStats
{
    long long requests = 0;  ///< member requests admitted
    long long groups = 0;    ///< submit() calls (batch groups)
    long long queued = 0;    ///< members that waited past their arrival
                             ///< boundary for capacity
    double queue_delay_s = 0.0;  ///< summed per-member (admit - arrival)
    double busy_slot_s = 0.0;    ///< summed member slot-seconds
    double first_arrival_s = std::numeric_limits<double>::infinity();
    double last_complete_s = 0.0;
    int peak_running = 0; ///< max concurrently executing members

    /**
     * Mean fraction of the backend's slot capacity in use over the
     * served horizon (first arrival to last completion); 0 when nothing
     * was served.
     */
    double occupancy(int slots) const;
};

/**
 * Discrete-event queue of one backend. Single-threaded by design: a
 * queue either lives inside one (episode-confined) EngineSession, or
 * inside a bench's post-join replay — never shared across threads.
 *
 * Determinism: the admission schedule is a pure function of the
 * submission sequence (arrival instants must be nondecreasing — episode
 * clocks only move forward, and the bench replay sorts by (arrival,
 * backend, submission index) before submitting), so results are
 * bit-identical at any EBS_JOBS.
 */
class BackendQueue
{
  public:
    /** Validates `config` (see QueueConfig::validate). */
    explicit BackendQueue(QueueConfig config);

    /**
     * Admit one flushed batch group: `requests` members arriving
     * together at `arrival_s`, each occupying one slot and an equal
     * share of `kv_tokens` for `service_s` seconds once admitted (the
     * group's members execute jointly, so each runs for the joint batch
     * time). Members are admitted FIFO at iteration boundaries as
     * capacity frees up; a member whose KV share alone exceeds the
     * budget is admitted solo when the backend is idle (it can never
     * co-run, but refusing it would deadlock the queue).
     *
     * `arrival_s` must be >= every earlier submission's arrival.
     */
    QueueAdmission submit(double arrival_s, int requests,
                          double kv_tokens, double service_s);

    const QueueConfig &config() const { return config_; }
    const QueueStats &stats() const { return stats_; }

  private:
    struct Running
    {
        double complete_s = 0.0;
        double kv_tokens = 0.0;
    };

    /** First iteration boundary at or after `t`. */
    double boundary(double t) const;

    QueueConfig config_;
    QueueStats stats_;
    /** Members still executing at the latest admission instant, pruned
     * lazily as admission time advances. */
    std::vector<Running> running_;
    double last_admit_s_ = 0.0; ///< FIFO: admissions are nondecreasing
};

/**
 * The per-backend queue fleet one serving simulation sees: a
 * BackendQueue per touched backend, created on first sight with the
 * profile's defaultQueueConfig. Deterministically iterable — keyed by
 * stable BackendId — and single-threaded like its member queues.
 */
class BackendQueueModel
{
  public:
    /** Ensure `backend` has a queue, deriving its config from
     * `profile` on first sight. */
    void ensureBackend(BackendId backend, const ModelProfile &profile);

    /**
     * Submit one flushed batch group to its backend's queue (which must
     * have been ensured) at `record.sim_time_s`, sized by the record's
     * occupancy and KV footprint, executing for `record.batched_s`.
     */
    QueueAdmission submit(const BatchRecord &record);

    /** Queue of one backend (nullptr when never ensured). */
    const BackendQueue *queue(BackendId backend) const;

    /** Stable-id-ordered view over every backend's queue. */
    const std::map<BackendId, BackendQueue> &queues() const
    {
        return queues_;
    }

  private:
    std::map<BackendId, BackendQueue> queues_;
};

} // namespace ebs::llm

#endif // EBS_LLM_BACKEND_QUEUE_H
