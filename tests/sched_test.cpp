/**
 * @file
 * Tests for the src/sched fleet-scheduler subsystem and its integration
 * with the episode runner: every task run exactly once, nested-submission
 * deadlock-freedom at pool size 1, exception propagation and skipping,
 * submission-order result delivery, persistent-worker reuse, and — the
 * contract everything else leans on — bitwise-identical episode results
 * at any pool size, including runner batches nested inside outer tasks
 * on the same pool (the run_all pattern).
 */

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "sched/fleet_scheduler.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace {

using namespace ebs;
using test::expectEpisodeIdentical;

/** Run `fn(0..count-1)` as one edge-free graph on `scheduler`. */
void
runEach(sched::FleetScheduler &scheduler, std::size_t count,
        const std::function<void(std::size_t)> &fn)
{
    sched::TaskGraph graph;
    for (std::size_t i = 0; i < count; ++i)
        graph.add([&fn, i] { fn(i); });
    scheduler.run(std::move(graph));
}

TEST(FleetScheduler, EdgeFreeGraphRunsEveryTaskExactlyOnce)
{
    sched::FleetScheduler scheduler(4);
    std::vector<std::atomic<int>> hits(64);
    sched::TaskGraph graph;
    for (std::size_t i = 0; i < hits.size(); ++i)
        graph.add([&hits, i] { hits[i].fetch_add(1); });
    const auto timings = scheduler.run(std::move(graph));
    ASSERT_EQ(timings.size(), hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1);
        EXPECT_TRUE(timings[i].ran);
    }
}

TEST(FleetScheduler, NestedSubmissionCannotDeadlockAtPoolSizeOne)
{
    // The regression this guards: a task occupying the pool's only
    // worker submits a nested graph onto the same pool and waits (a
    // run_all suite task running its episode batch). Help-execution must
    // drive the nested graphs to completion.
    sched::FleetScheduler scheduler(1);
    std::atomic<int> leaves{0};
    runEach(scheduler, 4, [&](std::size_t) {
        runEach(scheduler, 4, [&](std::size_t) {
            runEach(scheduler, 2,
                    [&](std::size_t) { leaves.fetch_add(1); });
        });
    });
    EXPECT_EQ(leaves.load(), 4 * 4 * 2);
}

TEST(FleetScheduler, PropagatesExceptionsFromNestedTasks)
{
    sched::FleetScheduler scheduler(2);
    EXPECT_THROW(runEach(scheduler, 3,
                         [&](std::size_t outer) {
                             runEach(scheduler, 2, [&](std::size_t inner) {
                                 if (outer == 1 && inner == 1)
                                     throw std::runtime_error(
                                         "subtask failed");
                             });
                         }),
                 std::runtime_error);
}

TEST(FleetScheduler, SkipsUnstartedTasksAfterAFailure)
{
    // At max_parallel = 1 the tasks start one at a time in id order, so
    // every task after the throwing first one is still unstarted when it
    // fails and must be drained as a skip.
    sched::FleetScheduler scheduler(2);
    const long long executed_before = scheduler.tasksExecuted();
    std::atomic<int> ran{0};

    sched::TaskGraph graph;
    graph.add([] { throw std::runtime_error("poisoned first task"); },
              "first");
    for (int i = 0; i < 8; ++i)
        graph.add([&] { ran.fetch_add(1); }, "later");

    try {
        scheduler.run(std::move(graph), /*max_parallel=*/1);
        FAIL() << "expected the first task's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "poisoned first task");
    }
    EXPECT_EQ(ran.load(), 0);
    // Only the first task executed; the rest were drained as skips.
    EXPECT_EQ(scheduler.tasksExecuted() - executed_before, 1);
}

TEST(FleetScheduler, PersistentWorkersAreReusedAcrossBatches)
{
    sched::FleetScheduler scheduler(3);
    EXPECT_EQ(scheduler.workers(), 3);
    const long long spawned = scheduler.threadsSpawned();
    for (int batch = 0; batch < 5; ++batch)
        runEach(scheduler, 16, [](std::size_t) {});
    // The satellite contract: repeated batches ride the same pool — the
    // scheduler never creates a thread after construction.
    EXPECT_EQ(scheduler.threadsSpawned(), spawned);
    EXPECT_GE(scheduler.tasksExecuted(), 5 * 16);
}

TEST(FleetScheduler, DefaultWorkersParsesEnvDefensively)
{
    const char *saved = std::getenv("EBS_JOBS");
    const std::string saved_value = saved ? saved : "";

    ::setenv("EBS_JOBS", "6", 1);
    EXPECT_EQ(sched::FleetScheduler::defaultWorkers(), 6);
    // The runner derives its budget from the same parser.
    EXPECT_EQ(runner::EpisodeRunner::defaultJobs(), 6);
    for (const char *bad : {"zero", "0", "-3", "6x", "", "9999"}) {
        ::setenv("EBS_JOBS", bad, 1);
        EXPECT_GE(sched::FleetScheduler::defaultWorkers(), 1) << bad;
    }
    ::unsetenv("EBS_JOBS");
    EXPECT_GE(sched::FleetScheduler::defaultWorkers(), 1);

    if (saved)
        ::setenv("EBS_JOBS", saved_value.c_str(), 1);
}

/**
 * A batch that exercises every coordinator paradigm with the modeled
 * parallel-agents pipeline enabled.
 */
std::vector<runner::EpisodeJob>
parallelAgentsBatch()
{
    std::vector<runner::EpisodeJob> jobs;
    // RoCo/HMAS: decentralized dialogue; MindAgent: centralized;
    // EmbodiedGPT: single-agent (nothing to fan out, still must agree).
    for (const char *name : {"RoCo", "HMAS", "MindAgent", "EmbodiedGPT"}) {
        const auto &spec = workloads::workload(name);
        for (int seed = 1; seed <= 2; ++seed) {
            runner::EpisodeJob job;
            job.workload = &spec;
            job.config = spec.config;
            job.difficulty = env::Difficulty::Easy;
            job.seed = runner::episodeSeed(seed);
            job.record_tokens = true;
            job.pipeline.parallel_agents = true;
            jobs.push_back(job);

            // Rec. 8 on top: the planning phase then carries a genuine
            // cross-agent dependency — results still cannot depend on
            // the pool.
            job.pipeline.comm_on_demand = true;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(SchedulerDeterminism, EpisodesBitIdenticalAcrossPoolSizes)
{
    // Serial reference: every episode inline on the calling thread.
    sched::FleetScheduler serial_pool(1);
    const auto serial =
        runner::EpisodeRunner(1, &serial_pool).run(parallelAgentsBatch());

    const int hw = std::max(
        2u, std::thread::hardware_concurrency()); // >= 2 so batches fan out
    for (const int pool_size : {4, static_cast<int>(hw)}) {
        SCOPED_TRACE("pool size " + std::to_string(pool_size));
        sched::FleetScheduler pool(pool_size);
        const auto scheduled =
            runner::EpisodeRunner(pool_size, &pool)
                .run(parallelAgentsBatch());
        ASSERT_EQ(scheduled.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            expectEpisodeIdentical(serial[i], scheduled[i]);
        }
    }
}

TEST(SchedulerDeterminism, NestedRunnerBatchesCompleteOnASaturatedPool)
{
    // The run_all pattern: outer tasks (suites) each run an
    // EpisodeRunner batch on the same pool, so with two outer tasks on a
    // 2-worker pool every worker is already occupied when the nested
    // batches are submitted — the tightest deadlock scenario nested
    // submission can reach (raw nesting at pool size 1 is covered by
    // NestedSubmissionCannotDeadlockAtPoolSizeOne). Both outer tasks
    // must drive their own batches to completion via help-execution and
    // stay bit-identical to the serial reference.
    sched::FleetScheduler pool(2);
    const auto batch = parallelAgentsBatch();
    const auto serial = runner::EpisodeRunner(1, &pool).run(batch);
    std::vector<std::vector<core::EpisodeResult>> nested(2);
    sched::TaskGraph suites;
    for (std::size_t suite = 0; suite < nested.size(); ++suite)
        suites.add([&, suite] {
            nested[suite] = runner::EpisodeRunner(2, &pool).run(batch);
        });
    pool.run(std::move(suites));
    for (const auto &results : nested) {
        ASSERT_EQ(results.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            expectEpisodeIdentical(serial[i], results[i]);
        }
    }
}

TEST(SchedulerDeterminism, RunnerDeliversResultsInSubmissionOrder)
{
    sched::FleetScheduler pool(4);
    std::vector<runner::EpisodeJob> jobs;
    for (int i = 0; i < 24; ++i) {
        runner::EpisodeJob job;
        job.seed = static_cast<std::uint64_t>(500 + i);
        job.custom = [](const core::EpisodeOptions &options) {
            core::EpisodeResult r;
            r.steps = static_cast<int>(options.seed);
            return r;
        };
        jobs.push_back(std::move(job));
    }
    const auto results = runner::EpisodeRunner(4, &pool).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)].steps, 500 + i);
}

TEST(SchedulerDeterminism, RunnerPropagatesEpisodeExceptions)
{
    sched::FleetScheduler pool(2);
    std::vector<runner::EpisodeJob> jobs(6);
    for (auto &job : jobs)
        job.custom = [](const core::EpisodeOptions &) -> core::EpisodeResult {
            throw std::runtime_error("episode exploded");
        };
    EXPECT_THROW(runner::EpisodeRunner(4, &pool).run(jobs),
                 std::runtime_error);
}

TEST(SchedulerDeterminism, RunnerBatchesReuseThePersistentPool)
{
    sched::FleetScheduler pool(3);
    const runner::EpisodeRunner runner(3, &pool);
    const long long spawned = pool.threadsSpawned();

    const auto &spec = workloads::workload("RoCo");
    std::vector<runner::EpisodeJob> jobs;
    for (int seed = 1; seed <= 3; ++seed) {
        runner::EpisodeJob job;
        job.workload = &spec;
        job.config = spec.config;
        job.difficulty = env::Difficulty::Easy;
        job.seed = runner::episodeSeed(seed);
        job.pipeline.parallel_agents = true;
        jobs.push_back(std::move(job));
    }
    const auto first = runner.run(jobs);
    const auto second = runner.run(jobs);
    EXPECT_EQ(pool.threadsSpawned(), spawned);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectEpisodeIdentical(first[i], second[i]);
}

} // namespace
