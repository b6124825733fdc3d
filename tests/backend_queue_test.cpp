/**
 * @file
 * Closed-loop backend queue contract: finite-capacity serving must keep
 * the determinism guarantees of the open-loop paths (bit-identical at
 * any EBS_JOBS), charge a hand-recomputable admission schedule, grow
 * charged delay monotonically past saturation, and reject degenerate
 * configurations loudly instead of deadlocking the queue.
 */

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "llm/backend_queue.h"
#include "llm/engine_service.h"
#include "llm/model_profile.h"
#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "runner/run_stats.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace {

using namespace ebs;

// ---------------------------------------------------------------------
// QueueConfig validation: degenerate capacity must throw, not hang.
// ---------------------------------------------------------------------

TEST(BackendQueue, DegenerateConfigsAreRejected)
{
    EXPECT_THROW(llm::BackendQueue({.slots = 0}), std::invalid_argument);
    EXPECT_THROW(llm::BackendQueue({.slots = -3}), std::invalid_argument);
    EXPECT_THROW(llm::BackendQueue({.kv_budget_tokens = 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(llm::BackendQueue({.kv_budget_tokens = -1.0}),
                 std::invalid_argument);
    EXPECT_THROW(llm::BackendQueue({.iteration_s = 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(llm::BackendQueue({.iteration_s = -0.25}),
                 std::invalid_argument);
    EXPECT_NO_THROW(llm::BackendQueue({}));
}

// ---------------------------------------------------------------------
// Hand-recomputed admission schedules.
// ---------------------------------------------------------------------

TEST(BackendQueue, SlotLimitedAdmissionMatchesHandSchedule)
{
    // 2 slots, 0.5 s iteration boundaries, unconstrained KV. A group of
    // 5 members arrives at t=0.1, each executing 1.0 s once admitted:
    //   boundary(0.1) = 0.5 -> admit 2, complete 1.5
    //   boundary(1.5) = 1.5 -> admit 2, complete 2.5
    //   boundary(2.5) = 2.5 -> admit 1, complete 3.5
    // Group delay = 3.5 - (0.1 + 1.0) = 2.4.
    llm::BackendQueue queue(
        {.slots = 2, .kv_budget_tokens = 1e9, .iteration_s = 0.5});
    const auto admission = queue.submit(0.1, 5, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(admission.admit_s, 2.5);
    EXPECT_DOUBLE_EQ(admission.complete_s, 3.5);
    EXPECT_DOUBLE_EQ(admission.queue_delay_s, 2.4);

    const auto &stats = queue.stats();
    EXPECT_EQ(stats.requests, 5);
    EXPECT_EQ(stats.groups, 1);
    // Members admitted at 1.5 and 2.5 waited past one iteration; the
    // first pair's 0.4 s is boundary quantization, not queueing.
    EXPECT_EQ(stats.queued, 3);
    // Per-member waits: 2 x 0.4 + 2 x 1.4 + 1 x 2.4.
    EXPECT_DOUBLE_EQ(stats.queue_delay_s, 6.0);
    EXPECT_DOUBLE_EQ(stats.busy_slot_s, 5.0);
    EXPECT_EQ(stats.peak_running, 2);
    EXPECT_DOUBLE_EQ(stats.first_arrival_s, 0.1);
    EXPECT_DOUBLE_EQ(stats.last_complete_s, 3.5);
    // 5 busy slot-s over 2 slots x (3.5 - 0.1) horizon.
    EXPECT_DOUBLE_EQ(stats.occupancy(2), 5.0 / (2.0 * 3.4));
}

TEST(BackendQueue, KvBudgetLimitsAdmissionBelowSlotCount)
{
    // 4 free slots but a 100-token budget against 100-token members:
    // members run strictly one at a time despite the slot headroom.
    llm::BackendQueue queue(
        {.slots = 4, .kv_budget_tokens = 100.0, .iteration_s = 0.5});
    const auto admission = queue.submit(0.0, 4, 400.0, 1.0);
    EXPECT_DOUBLE_EQ(admission.admit_s, 3.0);
    EXPECT_DOUBLE_EQ(admission.complete_s, 4.0);
    EXPECT_DOUBLE_EQ(admission.queue_delay_s, 3.0);
    EXPECT_EQ(queue.stats().peak_running, 1);
}

TEST(BackendQueue, OversizedMemberAdmitsSoloInsteadOfDeadlocking)
{
    // A member whose KV share alone exceeds the budget can never co-run;
    // it must be admitted alone on the idle backend, not spin forever.
    llm::BackendQueue queue(
        {.slots = 4, .kv_budget_tokens = 100.0, .iteration_s = 0.5});
    const auto admission = queue.submit(0.0, 1, 250.0, 1.0);
    EXPECT_DOUBLE_EQ(admission.admit_s, 0.0);
    EXPECT_DOUBLE_EQ(admission.complete_s, 1.0);
    EXPECT_DOUBLE_EQ(admission.queue_delay_s, 0.0);
}

TEST(BackendQueue, FifoGroupsQueueBehindEachOther)
{
    // One slot: a second group arriving at the same instant waits for
    // the first to finish, then starts at the next boundary.
    llm::BackendQueue queue(
        {.slots = 1, .kv_budget_tokens = 1e9, .iteration_s = 0.5});
    const auto first = queue.submit(0.0, 1, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(first.queue_delay_s, 0.0);
    const auto second = queue.submit(0.0, 1, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(second.admit_s, 1.0);
    EXPECT_DOUBLE_EQ(second.queue_delay_s, 1.0);
}

// ---------------------------------------------------------------------
// Saturation: offered load beyond capacity grows the charged delay.
// ---------------------------------------------------------------------

TEST(BackendQueue, ChargedDelayGrowsMonotonicallyPastSaturation)
{
    // One slot serving 1 s requests saturates at 1 request/s. Push
    // arrival rates past that: within a run the backlog (and so each
    // group's charged delay) must grow, and across runs a higher rate
    // must charge strictly more total delay.
    const double rates[] = {1.25, 2.5, 5.0};
    double previous_total = -1.0;
    for (const double rate : rates) {
        llm::BackendQueue queue(
            {.slots = 1, .kv_budget_tokens = 1e9, .iteration_s = 0.25});
        const int kGroups = 20;
        double last_delay = -1.0;
        double total = 0.0;
        for (int i = 0; i < kGroups; ++i) {
            const auto admission =
                queue.submit(static_cast<double>(i) / rate, 1, 0.0, 1.0);
            EXPECT_GT(admission.queue_delay_s, last_delay)
                << "backlog must grow at rate " << rate << ", group " << i;
            last_delay = admission.queue_delay_s;
            total += admission.queue_delay_s;
        }
        EXPECT_GT(total, previous_total)
            << "total charged delay must grow with offered load";
        previous_total = total;
    }
}

TEST(BackendQueue, SubSaturationBoundaryAlignedArrivalsPayNothing)
{
    // At half the service rate with boundary-aligned arrivals there is
    // no contention and no quantization: charged delay is exactly zero.
    llm::BackendQueue queue(
        {.slots = 1, .kv_budget_tokens = 1e9, .iteration_s = 0.25});
    for (int i = 0; i < 10; ++i) {
        const auto admission = queue.submit(2.0 * i, 1, 0.0, 1.0);
        EXPECT_DOUBLE_EQ(admission.queue_delay_s, 0.0);
    }
}

// ---------------------------------------------------------------------
// End-to-end: queue-charged episodes stay deterministic at any worker
// count and never perturb behavior (only the clock).
// ---------------------------------------------------------------------

/** The engine_service_test paradigm batch, pointed at `service`. */
std::vector<runner::EpisodeJob>
paradigmBatch(llm::LlmEngineService *service)
{
    std::vector<runner::EpisodeJob> jobs;
    for (const char *name : {"EmbodiedGPT", "MindAgent", "CoELA"}) {
        const auto &spec = workloads::workload(name);
        for (int seed = 1; seed <= 3; ++seed) {
            runner::EpisodeJob job;
            job.workload = &spec;
            job.config = spec.config;
            job.difficulty = env::Difficulty::Easy;
            job.seed = runner::episodeSeed(seed);
            job.record_tokens = true;
            job.engine_service = service;
            job.pipeline.batch_llm_calls = true;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

constexpr llm::ServiceConfig kQueuedConfig{.queue = true};

TEST(BackendQueue, QueuedEpisodesBitIdenticalAcrossWorkerCounts)
{
    llm::LlmEngineService reference_service(kQueuedConfig);
    const auto reference =
        runner::EpisodeRunner(1).run(paradigmBatch(&reference_service));

    const int worker_counts[] = {4, runner::EpisodeRunner::defaultJobs()};
    for (const int workers : worker_counts) {
        llm::LlmEngineService service(kQueuedConfig);
        const auto routed =
            runner::EpisodeRunner(workers).run(paradigmBatch(&service));
        ASSERT_EQ(routed.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) + " job " +
                         std::to_string(i));
            test::expectEpisodeIdentical(reference[i], routed[i]);
            // The queue's own telemetry must be deterministic too:
            // identical batch logs including the charged delay.
            ASSERT_EQ(routed[i].llm_batches.size(),
                      reference[i].llm_batches.size());
            for (std::size_t b = 0; b < reference[i].llm_batches.size();
                 ++b) {
                EXPECT_EQ(routed[i].llm_batches[b].queue_delay_s,
                          reference[i].llm_batches[b].queue_delay_s);
                EXPECT_EQ(routed[i].llm_batches[b].kv_tokens,
                          reference[i].llm_batches[b].kv_tokens);
                EXPECT_EQ(routed[i].llm_batches[b].sim_time_s,
                          reference[i].llm_batches[b].sim_time_s);
            }
        }
    }
}

TEST(BackendQueue, QueueingChargesTheClockButNeverPerturbsBehavior)
{
    // Open loop (infinite-capacity backends): the behavioral reference.
    llm::LlmEngineService open_service;
    const auto open_loop =
        runner::EpisodeRunner(1).run(paradigmBatch(&open_service));

    llm::LlmEngineService queued_service(kQueuedConfig);
    const auto queued =
        runner::EpisodeRunner(1).run(paradigmBatch(&queued_service));

    ASSERT_EQ(queued.size(), open_loop.size());
    double total_delay = 0.0;
    for (std::size_t i = 0; i < open_loop.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(queued[i].steps, open_loop[i].steps);
        EXPECT_EQ(queued[i].success, open_loop[i].success);
        EXPECT_EQ(queued[i].final_progress, open_loop[i].final_progress);
        for (const auto &batch : queued[i].llm_batches) {
            EXPECT_GE(batch.queue_delay_s, 0.0);
            total_delay += batch.queue_delay_s;
        }
    }
    // The iteration-boundary quantization alone guarantees some charge.
    EXPECT_GT(total_delay, 0.0);

    // And the fold surfaces it: RunStats adds the logs' records in the
    // same order as the loop above, so the sums agree bit for bit.
    const auto stats = runner::foldEpisodes(queued);
    EXPECT_EQ(stats.batching.queue_delay_s, total_delay);
    EXPECT_GT(stats.queueDelayShare(), 0.0);
    EXPECT_LT(stats.queueDelayShare(), 1.0);
}

} // namespace
