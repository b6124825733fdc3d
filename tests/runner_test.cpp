/**
 * @file
 * Tests for the src/runner episode fan-out subsystem: parallel execution
 * must be bit-identical to serial execution, results must come back in
 * submission order, the RunStats fold must reproduce the historical
 * serial averaging, and EBS_JOBS must be parsed defensively.
 */

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "runner/run_stats.h"
#include "stats/module_kind.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace {

using namespace ebs;
using test::expectEpisodeIdentical;

/** Bitwise comparison shared with engine_service_test (test_util.h). */
void
expectIdentical(const core::EpisodeResult &a, const core::EpisodeResult &b)
{
    expectEpisodeIdentical(a, b);
}

/** A batch covering all three paradigms, several seeds each. */
std::vector<runner::EpisodeJob>
mixedBatch()
{
    std::vector<runner::EpisodeJob> jobs;
    for (const char *name : {"EmbodiedGPT", "MindAgent", "RoCo"}) {
        const auto &spec = workloads::workload(name);
        for (int seed = 1; seed <= 3; ++seed) {
            runner::EpisodeJob job;
            job.workload = &spec;
            job.config = spec.config;
            job.difficulty = env::Difficulty::Easy;
            job.seed = runner::episodeSeed(seed);
            job.record_tokens = true;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(EpisodeRunner, ParallelIsBitIdenticalToSerial)
{
    const auto jobs = mixedBatch();
    const auto serial = runner::EpisodeRunner(1).run(jobs);
    const auto parallel = runner::EpisodeRunner(8).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
    }
}

TEST(EpisodeRunner, ResultsComeBackInSubmissionOrder)
{
    const auto jobs = mixedBatch();
    const auto batched = runner::EpisodeRunner(4).run(jobs);
    ASSERT_EQ(batched.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        expectIdentical(runner::runEpisode(jobs[i]), batched[i]);
    }
}

TEST(EpisodeRunner, CustomJobsRunAndKeepOrder)
{
    std::vector<runner::EpisodeJob> jobs;
    for (int i = 0; i < 16; ++i) {
        runner::EpisodeJob job;
        job.seed = static_cast<std::uint64_t>(100 + i);
        job.custom = [](const core::EpisodeOptions &options) {
            core::EpisodeResult r;
            r.steps = static_cast<int>(options.seed);
            return r;
        };
        jobs.push_back(std::move(job));
    }
    const auto results = runner::EpisodeRunner(8).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)].steps, 100 + i);
}

TEST(EpisodeRunner, EmptyBatchYieldsEmptyResults)
{
    EXPECT_TRUE(runner::EpisodeRunner(8).run({}).empty());
}

TEST(EpisodeRunner, PropagatesWorkerExceptions)
{
    std::vector<runner::EpisodeJob> jobs(8);
    for (auto &job : jobs)
        job.custom = [](const core::EpisodeOptions &) -> core::EpisodeResult {
            throw std::runtime_error("episode exploded");
        };
    EXPECT_THROW(runner::EpisodeRunner(4).run(jobs), std::runtime_error);
}

TEST(EpisodeRunner, DefaultJobsParsesEnvDefensively)
{
    const char *saved = std::getenv("EBS_JOBS");
    const std::string saved_value = saved ? saved : "";

    ::setenv("EBS_JOBS", "3", 1);
    EXPECT_EQ(runner::EpisodeRunner::defaultJobs(), 3);
    EXPECT_EQ(runner::EpisodeRunner().jobs(), 3);
    EXPECT_EQ(runner::EpisodeRunner(5).jobs(), 5); // explicit wins

    // Garbage, zero, and negatives fall back to hardware concurrency.
    for (const char *bad : {"abc", "0", "-2", "4x", ""}) {
        ::setenv("EBS_JOBS", bad, 1);
        EXPECT_GE(runner::EpisodeRunner::defaultJobs(), 1) << bad;
    }
    ::unsetenv("EBS_JOBS");
    EXPECT_GE(runner::EpisodeRunner::defaultJobs(), 1);

    if (saved)
        ::setenv("EBS_JOBS", saved_value.c_str(), 1);
}

TEST(RunStats, FoldReproducesSerialAveraging)
{
    const auto &spec = workloads::workload("EmbodiedGPT");
    std::vector<runner::EpisodeJob> jobs;
    for (int seed = 1; seed <= 4; ++seed) {
        runner::EpisodeJob job;
        job.workload = &spec;
        job.config = spec.config;
        job.difficulty = env::Difficulty::Easy;
        job.seed = runner::episodeSeed(seed);
        jobs.push_back(std::move(job));
    }
    const auto episodes = runner::EpisodeRunner(1).run(jobs);
    const auto folded = runner::foldEpisodes(episodes);

    // The historical bench_util.h accumulation, verbatim.
    double success = 0, steps = 0, runtime = 0, latency = 0;
    long long calls = 0, tokens = 0;
    for (const auto &r : episodes) {
        success += r.success;
        steps += r.steps;
        runtime += r.sim_seconds / 60.0;
        latency += r.secondsPerStep();
        calls += static_cast<long long>(r.llm.calls);
        tokens += r.llm.tokens_in + r.llm.tokens_out;
    }
    const double n = 4.0;
    EXPECT_EQ(folded.episodes, 4);
    EXPECT_EQ(folded.success_rate, success / n);
    EXPECT_EQ(folded.avg_steps, steps / n);
    EXPECT_EQ(folded.avg_runtime_min, runtime / n);
    EXPECT_EQ(folded.avg_step_latency_s, latency / n);
    EXPECT_EQ(folded.llm_calls, calls);
    EXPECT_EQ(folded.tokens, tokens);
    EXPECT_EQ(folded.llmCallsPerEpisode(), calls / n);
    EXPECT_EQ(folded.tokensPerEpisode(), tokens / n);
}

TEST(RunStats, AveragedManySlicesPerVariant)
{
    const auto &a = workloads::workload("EmbodiedGPT");
    const auto &b = workloads::workload("RoCo");

    runner::RunVariant va;
    va.workload = &a;
    va.config = a.config;
    va.difficulty = env::Difficulty::Easy;
    va.seeds = 2;
    runner::RunVariant vb;
    vb.workload = &b;
    vb.config = b.config;
    vb.difficulty = env::Difficulty::Easy;
    vb.seeds = 3;

    const runner::EpisodeRunner parallel(8);
    const auto many = runner::runAveragedMany(parallel, {va, vb});
    ASSERT_EQ(many.size(), 2u);
    EXPECT_EQ(many[0].episodes, 2);
    EXPECT_EQ(many[1].episodes, 3);

    // Each variant's stats match an isolated serial run of that variant.
    const runner::EpisodeRunner serial(1);
    const auto only_a = runner::runAveragedMany(serial, {va}).front();
    const auto only_b = runner::runAveragedMany(serial, {vb}).front();
    EXPECT_EQ(many[0].success_rate, only_a.success_rate);
    EXPECT_EQ(many[1].avg_steps, only_b.avg_steps);
    EXPECT_EQ(many[1].tokens, only_b.tokens);
}

} // namespace
