#ifndef EBS_SCHED_FLEET_SCHEDULER_H
#define EBS_SCHED_FLEET_SCHEDULER_H

#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"

namespace ebs::sched {

/**
 * When and where one task of a scheduled graph ran, in seconds relative
 * to the scheduler's construction. `run_all` turns these into the
 * per-suite wall-clock / straggler summary.
 */
struct TaskTiming
{
    std::string label;
    double start_s = 0.0;
    double end_s = 0.0;
    int worker = -1; ///< executing worker index; -1 = a helping waiter
    bool ran = false; ///< false when skipped after an earlier task threw

    double duration() const { return end_s - start_s; }
};

/**
 * A batch of independent tasks: the unit FleetScheduler executes. Tasks
 * are identified by their insertion index and started in that order.
 * The EpisodeRunner submits one task per episode; `run_all` one per
 * suite.
 */
class TaskGraph
{
  public:
    using TaskId = std::size_t;

    /** Append a task; returns its id (the insertion index). */
    TaskId add(std::function<void()> fn, std::string label = {});

    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }

  private:
    friend class FleetScheduler;

    struct Node
    {
        std::function<void()> fn;
        std::string label;
    };

    std::vector<Node> nodes_;
};

/**
 * Process-wide work scheduler: one persistent pool of `workers()` threads
 * (sized by EBS_JOBS for the shared() instance) executing TaskGraphs for
 * every client in the process — suite drivers and the EpisodeRunner's
 * episode batches share the same global budget. An episode itself runs
 * entirely on the thread that executes its task.
 *
 * Nested submission is a first-class operation: run() blocks, but the
 * calling thread *helps* — it executes ready tasks of the graph it is
 * waiting on instead of sleeping. A worker whose task itself calls run()
 * (a run_all suite task submitting its episode batch) therefore drives
 * the nested graph to completion even when it occupies the pool's only
 * thread, so no pool size can deadlock. Helping is scoped to the
 * awaited graph, which also bounds help-recursion depth by the nesting
 * depth, not the batch size.
 *
 * The scheduler never influences results: tasks carry their own state and
 * clients require order-independence of the work they submit (the episode
 * determinism contract), so worker count and interleaving only change
 * wall-clock. Exceptions: the first throwing task's exception is
 * rethrown from run() after the graph drains; tasks that were not yet
 * started when the failure happened are skipped (TaskTiming::ran stays
 * false).
 *
 * Lock contract (compiler-checked): one mutex, `mu_`, guards every piece
 * of cross-thread state — the active-execution list, the stop flag, and
 * the lifetime counters — plus all fields of the per-graph Execution
 * records while they are registered. The EBS_GUARDED_BY / EBS_REQUIRES
 * annotations below make Clang's `-Wthread-safety` analysis enforce
 * this: the CI static-analysis job fails the build on any unlocked
 * access, so the contract cannot rot into a latent race.
 */
class FleetScheduler
{
  public:
    /** @param workers pool threads; <= 0 selects defaultWorkers(). */
    explicit FleetScheduler(int workers = 0);
    ~FleetScheduler();

    FleetScheduler(const FleetScheduler &) = delete;
    FleetScheduler &operator=(const FleetScheduler &) = delete;

    /** Persistent pool threads (>= 1). */
    int workers() const { return static_cast<int>(pool_.size()); }

    /**
     * Worker threads this scheduler has ever created — constant after
     * construction, which is exactly the point: repeated batches reuse
     * the persistent pool instead of respawning threads (the
     * EpisodeRunner asserts this around every run).
     */
    long long threadsSpawned() const EBS_EXCLUDES(mu_);

    /** Tasks executed (not skipped) over the scheduler's lifetime. */
    long long tasksExecuted() const EBS_EXCLUDES(mu_);

    /**
     * Execute every task of `graph` and return one TaskTiming per task
     * (indexed like the graph). At most
     * `max_parallel` tasks of this graph run concurrently when > 0 (the
     * EpisodeRunner passes its --jobs cap); the pool size always caps
     * globally. Blocking, help-executing, nestable; see class comment
     * for the failure contract.
     */
    std::vector<TaskTiming> run(TaskGraph graph, int max_parallel = 0)
        EBS_EXCLUDES(mu_);

    /** Seconds since this scheduler was constructed (timeline clock). */
    double nowSeconds() const;

    /**
     * `EBS_JOBS` if set to a positive integer (1..1024), else the
     * hardware concurrency (>= 1). One knob sizes the whole fleet's
     * budget: run_all's suite concurrency, the shared EpisodeRunner,
     * and the shared scheduler's pool all derive from it.
     */
    static int defaultWorkers();

    /**
     * Process-wide instance built with defaultWorkers(): the single
     * global pool behind EpisodeRunner::shared(), so suites and
     * episodes draw from one EBS_JOBS budget.
     */
    static FleetScheduler &shared();

  private:
    struct Execution; ///< one in-flight graph (lives on run()'s stack)

    struct Claim
    {
        Execution *exec = nullptr;
        std::size_t task = 0;
    };

    /** Claim the next unstarted task — from `only` when helping, from
     * any active execution (oldest graph first) when a worker. */
    bool claimLocked(Execution *only, Claim &claim) EBS_REQUIRES(mu_);

    /** Execute (or skip) a claimed task. Enters and leaves with `lock`
     * held, but drops it around the task body — lock juggling through a
     * caller-owned scoped lock, which is why the definition opts out of
     * the body analysis (callers are still REQUIRES-checked). */
    void runClaim(core::MutexLock &lock, const Claim &claim, int worker)
        EBS_REQUIRES(mu_);

    /** Create one pool thread (the only place a thread is ever made;
     * counts into threadsSpawned so a respawn regression trips the
     * runner's reuse assertion instead of passing silently). */
    void spawnWorker() EBS_REQUIRES(mu_);

    void workerLoop(int index) EBS_EXCLUDES(mu_);

    mutable core::Mutex mu_;
    core::CondVar work_cv_; ///< wakes idle workers
    /** Registration order = priority. */
    std::vector<Execution *> active_ EBS_GUARDED_BY(mu_);
    /** Populated under mu_ during construction, joined in the destructor,
     * structurally constant in between — so sized reads (workers()) are
     * safe lock-free and the field carries no capability. */
    std::vector<std::thread> pool_;
    bool stop_ EBS_GUARDED_BY(mu_) = false;
    long long executed_ EBS_GUARDED_BY(mu_) = 0;
    /** Thread-creation events, not pool size. */
    long long spawned_ EBS_GUARDED_BY(mu_) = 0;
    /** stats::hostNow() at construction (timeline origin). */
    double epoch_s_ = 0.0;
};

} // namespace ebs::sched

#endif // EBS_SCHED_FLEET_SCHEDULER_H
