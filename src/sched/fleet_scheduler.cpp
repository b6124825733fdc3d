#include "sched/fleet_scheduler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "obs/trace.h"
#include "stats/host_clock.h"

namespace ebs::sched {

TaskGraph::TaskId
TaskGraph::add(std::function<void()> fn, std::string label)
{
    nodes_.push_back({std::move(fn), std::move(label)});
    return nodes_.size() - 1;
}

/**
 * One in-flight graph. Lives on the stack of the run() call that owns
 * it, registered with the scheduler for its lifetime; all fields are
 * guarded by the scheduler mutex.
 */
struct FleetScheduler::Execution
{
    TaskGraph graph;
    std::size_t next = 0; ///< id of the next task to start
    std::vector<TaskTiming> timings;
    std::size_t done = 0;
    int running = 0;
    int cap = 0; ///< max concurrent tasks of this graph; 0 = pool-only
    bool failed = false;
    std::exception_ptr error;
    /** Wakes the owning waiter: fires when one of this graph's tasks
     * finishes (so the waiter can help execute the next one). */
    core::CondVar owner_cv;
};

FleetScheduler::FleetScheduler(int workers)
    : epoch_s_(stats::hostNow())
{
    const int count = workers > 0 ? workers : defaultWorkers();
    // Construction is single-threaded, but spawnWorker() writes
    // mu_-guarded counters and each new worker immediately contends on
    // mu_ — holding the lock across the spawn loop keeps the annotated
    // contract airtight (workers block until the pool is fully built).
    core::MutexLock lock(mu_);
    pool_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        spawnWorker();
}

void
FleetScheduler::spawnWorker()
{
    const int index = static_cast<int>(pool_.size());
    ++spawned_;
    pool_.emplace_back([this, index] { workerLoop(index); });
}

FleetScheduler::~FleetScheduler()
{
    {
        core::MutexLock lock(mu_);
        stop_ = true;
    }
    work_cv_.notifyAll();
    for (auto &thread : pool_)
        thread.join();
}

long long
FleetScheduler::threadsSpawned() const
{
    // A creation-event counter, deliberately not pool_.size(): if a
    // future change tears workers down and respawns them per batch, the
    // pool size would look unchanged while this count grows — which is
    // exactly what the EpisodeRunner's reuse assertion must catch.
    core::MutexLock lock(mu_);
    return spawned_;
}

long long
FleetScheduler::tasksExecuted() const
{
    core::MutexLock lock(mu_);
    return executed_;
}

double
FleetScheduler::nowSeconds() const
{
    return stats::hostNow() - epoch_s_;
}

int
FleetScheduler::defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
    // getenv is not thread-safe against setenv, but nothing in the
    // process mutates the environment after main() starts; the read is
    // also memoized by every caller (static init of the shared pools).
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *v = std::getenv("EBS_JOBS")) {
        char *end = nullptr;
        const long parsed = std::strtol(v, &end, 10);
        if (end != v && *end == '\0' && parsed > 0 && parsed <= 1024)
            return static_cast<int>(parsed);
        // A typo'd EBS_JOBS silently running at full parallelism would
        // corrupt serial baselines; say what happened.
        std::fprintf(stderr,
                     "sched: ignoring invalid EBS_JOBS='%s' "
                     "(want 1..1024), using %d\n",
                     v, fallback);
    }
    return fallback;
}

FleetScheduler &
FleetScheduler::shared()
{
    static FleetScheduler instance;
    return instance;
}

bool
FleetScheduler::claimLocked(Execution *only, Claim &claim)
{
    const auto claimable = [](const Execution &exec) {
        if (exec.next >= exec.graph.size())
            return false;
        // The cap throttles live work, not the post-failure drain: once
        // a graph failed its remaining tasks are skipped, and delaying
        // the skips would only stall the waiter.
        return exec.failed || exec.cap <= 0 || exec.running < exec.cap;
    };

    Execution *chosen = nullptr;
    if (only != nullptr) {
        if (claimable(*only))
            chosen = only;
    } else {
        for (Execution *exec : active_) {
            if (claimable(*exec)) {
                chosen = exec;
                break;
            }
        }
    }
    if (chosen == nullptr)
        return false;

    claim.exec = chosen;
    claim.task = chosen->next++;
    ++chosen->running;
    return true;
}

// The body drops and re-takes the caller's scoped lock around the task
// function — a hand-off Clang's analysis cannot express through a
// by-reference MutexLock, so the body opts out; the EBS_REQUIRES(mu_)
// contract in the header still checks every call site.
void
FleetScheduler::runClaim(core::MutexLock &lock, const Claim &claim,
                         int worker) EBS_NO_THREAD_SAFETY_ANALYSIS
{
    Execution &exec = *claim.exec;
    const std::size_t task = claim.task;
    const bool skip = exec.failed;

    TaskTiming &timing = exec.timings[task];
    timing.worker = worker;
    timing.start_s = nowSeconds();

    std::exception_ptr error;
    if (!skip) {
        lock.unlock();
        try {
            exec.graph.nodes_[task].fn();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
    }

    timing.end_s = nowSeconds();
    timing.ran = !skip;
    if (!skip)
        ++executed_;
    if (!skip && obs::traceEnabled()) {
        // Host-timeline task span. Recorded while mu_ is held (relocked
        // above), so run()'s post-join reads of the per-thread trace
        // buffers are ordered after every recording (happens-before via
        // the scheduler mutex). Timings are epoch-relative; the tracer
        // stores absolute hostNow() stamps.
        const std::string &label = exec.graph.nodes_[task].label;
        obs::Tracer::shared().hostTask(
            "sched", label.empty() ? std::string("task") : label,
            epoch_s_ + timing.start_s, epoch_s_ + timing.end_s, worker);
    }
    if (error) {
        exec.failed = true;
        if (!exec.error)
            exec.error = error;
    }
    --exec.running;
    ++exec.done;

    // Wake pool workers only when this graph actually has claimable work
    // left (a cap slot freeing over unstarted tasks, or a failure drain)
    // — short-episode tasks are small, and an unconditional notify_all
    // would thundering-herd every idle worker on each completion. Other
    // graphs' claimability cannot change here. The owner always learns
    // about its graph's progress.
    if (exec.next < exec.graph.size())
        work_cv_.notifyAll();
    exec.owner_cv.notifyAll();
}

void
FleetScheduler::workerLoop(int index)
{
    core::MutexLock lock(mu_);
    for (;;) {
        Claim claim;
        if (claimLocked(nullptr, claim)) {
            runClaim(lock, claim, index);
            continue;
        }
        if (stop_)
            return;
        work_cv_.wait(mu_, lock);
    }
}

std::vector<TaskTiming>
FleetScheduler::run(TaskGraph graph, int max_parallel)
{
    const std::size_t count = graph.size();
    if (count == 0)
        return {};

    Execution exec;
    exec.graph = std::move(graph);
    exec.timings.resize(count);
    exec.cap = max_parallel > 0 ? max_parallel : 0;
    for (std::size_t id = 0; id < count; ++id)
        exec.timings[id].label = exec.graph.nodes_[id].label;

    {
        core::MutexLock lock(mu_);
        active_.push_back(&exec);
        work_cv_.notifyAll();

        // Help-execute our own graph while it drains. Restricting
        // helping to the awaited graph keeps the blocked stack bounded
        // (a suite task never starts another suite's episode in its own
        // frames) and cannot deadlock: either this thread finds a ready
        // task to run, or every remaining task is running on some other
        // thread, which will finish it and signal owner_cv.
        while (exec.done < count) {
            Claim claim;
            if (claimLocked(&exec, claim)) {
                runClaim(lock, claim, /*worker=*/-1);
                continue;
            }
            exec.owner_cv.wait(mu_, lock);
        }

        active_.erase(std::find(active_.begin(), active_.end(), &exec));
    }

    if (exec.error)
        std::rethrow_exception(exec.error);
    return std::move(exec.timings);
}

} // namespace ebs::sched
