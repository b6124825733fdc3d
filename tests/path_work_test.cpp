/**
 * @file
 * Deterministic path-query work counters (EpisodeResult::path_work) on a
 * pipeline_opts-style batch: they repeat exactly at any worker count,
 * free-space labels keep A* nodes expanded below 40% of what the same
 * batch expanded with a search on every query, and at most one search
 * per environment fails.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace {

using namespace ebs;

/** MindAgent, CoELA and COMBO at 8 and 12 agents on Medium with every
 * Sec. V-D switch on (perfbench's pipeline_opts mix), seeds 1-4. */
std::vector<runner::EpisodeJob>
pipelineOptsBatch()
{
    core::PipelineOptions pipeline;
    pipeline.parallel_agents = true;
    pipeline.speculative_execute = true;
    pipeline.batch_llm_calls = true;
    pipeline.comm_on_demand = true;
    pipeline.plan_every_k = 2;
    pipeline.context_compression = 0.5;
    std::vector<runner::EpisodeJob> jobs;
    for (const char *name : {"MindAgent", "CoELA", "COMBO"}) {
        const auto &spec = workloads::workload(name);
        for (const int agents : {8, 12}) {
            for (int seed = 1; seed <= 4; ++seed) {
                runner::EpisodeJob job;
                job.workload = &spec;
                job.config = spec.config;
                job.difficulty = env::Difficulty::Medium;
                job.seed = runner::episodeSeed(seed);
                job.n_agents = agents;
                job.pipeline = pipeline;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

/** Workers for the parallel run: EBS_JOBS when set, else 4. */
int
parallelWorkers()
{
    return std::getenv("EBS_JOBS") != nullptr
               ? runner::EpisodeRunner::defaultJobs()
               : 4;
}

TEST(PathWork, LabelsCutExpandedNodes)
{
    const auto jobs = pipelineOptsBatch();
    const auto serial = runner::EpisodeRunner(1).run(jobs);
    const auto parallel = runner::EpisodeRunner(parallelWorkers()).run(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    env::PathWork total;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        test::expectPathWorkIdentical(serial[i].path_work,
                                      parallel[i].path_work);
        const env::PathWork &w = serial[i].path_work;
        total.queries += w.queries;
        total.searches += w.searches;
        total.failed += w.failed;
        total.fast_rejections += w.fast_rejections;
        total.expanded += w.expanded;
        total.labelled_cells += w.labelled_cells;
    }

    // Batch totals, recorded when the labels started to stay exact once
    // started (a blocked non-simple point splits its component in place).
    EXPECT_EQ(total.queries, 5896);
    EXPECT_EQ(total.searches, 3373);
    EXPECT_EQ(total.failed, 24);
    EXPECT_EQ(total.fast_rejections, 2523);
    EXPECT_EQ(total.expanded, 55903);
    EXPECT_EQ(total.labelled_cells, 16293);
    // Only an environment's first failed search runs: the labels answer
    // every later one.
    EXPECT_LE(total.failed, static_cast<long long>(jobs.size()));
    EXPECT_LE(total.expanded, 60000);

    // The same batch with a search on every query (no labels) expanded
    // this many A* nodes, in 5896 searches of which 2547 failed.
    constexpr long long kExpandedWithoutLabels = 247278;
    EXPECT_LE(total.expanded * 10, kExpandedWithoutLabels * 4);
}

} // namespace
