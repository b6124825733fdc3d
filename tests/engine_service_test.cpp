/**
 * @file
 * Determinism harness for the shared LLM engine service, the one path
 * every LLM call takes: episodes routed through LlmEngineService match
 * the pinned per-agent-engine reference (kPinnedEnginePath) bit for bit,
 * serial or fanned across EpisodeRunner workers, and batch assembly
 * stays reproducible at any worker count.
 */

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "llm/engine.h"
#include "llm/engine_service.h"
#include "llm/model_profile.h"
#include "runner/averaged.h"
#include "runner/episode_runner.h"
#include "runner/run_stats.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace {

using namespace ebs;

/** A batch covering all three paradigms (single, centralized,
 * decentralized), several seeds each, with multi-agent teams. */
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
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/**
 * The paradigmBatch episodes as the per-agent private engines produced
 * them, before every LLM call went through an engine-service session
 * (jobs in paradigmBatch order). `sim_bits` and `llm_latency_bits` are
 * the IEEE-754 bit patterns of sim_seconds and llm.total_latency_s.
 */
struct PinnedEpisode
{
    bool success;
    int steps;
    std::uint64_t sim_bits;
    std::uint64_t llm_latency_bits;
    std::size_t calls;
    long tokens_in;
    long tokens_out;
    int messages_generated;
    int messages_useful;
    std::size_t token_rows;
};

constexpr PinnedEpisode kPinnedEnginePath[] = {
    {true, 25, 0x405bdc0aedd1a3caULL, 0x4043a5e353f7ced9ULL, 25, 12888, 1820,
     0, 0, 25},
    {true, 64, 0x4070e155ca3955e0ULL, 0x4058bab37d235753ULL, 64, 32867, 4574,
     0, 0, 64},
    {true, 26, 0x40592a534a68348cULL, 0x404231c68d0ca7d5ULL, 26, 13282, 1662,
     0, 0, 26},
    {true, 33, 0x4080a115d6ab5e7fULL, 0x407e706d321de5daULL, 66, 134970,
     8803, 33, 33, 66},
    {true, 9, 0x4062e1e9b6a97f02ULL, 0x405e2c399c9a7d02ULL, 18, 23850, 2232,
     9, 9, 18},
    {true, 10, 0x406473d715f5c0aaULL, 0x40613fe3f491d4d3ULL, 20, 27100, 2513,
     10, 10, 20},
    {true, 10, 0x4073018f3f9b8ee3ULL, 0x406eff4dc36da270ULL, 60, 48203, 3941,
     20, 4, 40},
    {true, 10, 0x4074102804c058c5ULL, 0x406fbb559c93cf27ULL, 60, 49495, 4181,
     20, 3, 40},
    {true, 8, 0x406da3c35a09abb5ULL, 0x406824eda026dd84ULL, 48, 37920, 3229,
     16, 3, 32},
};

TEST(EngineService, BitIdenticalAcrossEnginePathsAndWorkerCounts)
{
    // Reference: the serial run matches the pinned private-engine table.
    llm::LlmEngineService serial_service;
    const auto serial =
        runner::EpisodeRunner(1).run(paradigmBatch(&serial_service));
    ASSERT_EQ(serial.size(), std::size(kPinnedEnginePath));
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const PinnedEpisode &pinned = kPinnedEnginePath[i];
        const auto &episode = serial[i];
        EXPECT_EQ(episode.success, pinned.success);
        EXPECT_EQ(episode.steps, pinned.steps);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(episode.sim_seconds),
                  pinned.sim_bits);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(episode.llm.total_latency_s),
                  pinned.llm_latency_bits);
        EXPECT_EQ(episode.llm.calls, pinned.calls);
        EXPECT_EQ(episode.llm.tokens_in, pinned.tokens_in);
        EXPECT_EQ(episode.llm.tokens_out, pinned.tokens_out);
        EXPECT_EQ(episode.messages_generated, pinned.messages_generated);
        EXPECT_EQ(episode.messages_useful, pinned.messages_useful);
        EXPECT_EQ(episode.token_series.size(), pinned.token_rows);
    }

    // The EBS_JOBS sweep of the acceptance contract: a fixed
    // multi-worker count and the hardware/EBS_JOBS default match serial.
    for (const int workers : {4, runner::EpisodeRunner::defaultJobs()}) {
        llm::LlmEngineService service;
        const auto routed =
            runner::EpisodeRunner(workers).run(paradigmBatch(&service));
        ASSERT_EQ(routed.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) + " job " +
                         std::to_string(i));
            test::expectEpisodeIdentical(serial[i], routed[i]);
        }
    }
}

/** paradigmBatch with the charged-batching ablation switched on (and
 * optionally the modeled parallel_agents clock stacked on top). */
std::vector<runner::EpisodeJob>
chargedBatch(llm::LlmEngineService *service, bool parallel_agents = false)
{
    auto jobs = paradigmBatch(service);
    for (auto &job : jobs) {
        job.pipeline.batch_llm_calls = true;
        job.pipeline.parallel_agents = parallel_agents;
    }
    return jobs;
}

TEST(EngineService, ChargedBatchingBitIdenticalAcrossWorkerCounts)
{
    // The acceptance sweep for the charged-batch path: with
    // batch_llm_calls on (alone, and stacked with parallel_agents),
    // results — including the now-batched sim_seconds — are bitwise
    // identical at EBS_JOBS ∈ {1, 4, hw}.
    for (const bool parallel : {false, true}) {
        SCOPED_TRACE("parallel_agents=" + std::to_string(parallel));
        llm::LlmEngineService reference_service;
        const auto reference = runner::EpisodeRunner(1).run(
            chargedBatch(&reference_service, parallel));

        for (const int workers : {4, runner::EpisodeRunner::defaultJobs()}) {
            llm::LlmEngineService service;
            const auto routed = runner::EpisodeRunner(workers).run(
                chargedBatch(&service, parallel));
            ASSERT_EQ(routed.size(), reference.size());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                SCOPED_TRACE("workers=" + std::to_string(workers) +
                             " job " + std::to_string(i));
                test::expectEpisodeIdentical(reference[i], routed[i]);
            }
        }
    }
}

TEST(EngineService, ChargedBatchingOnlyMovesTheClock)
{
    // Charging swaps the clock's LLM cost model, nothing else: every
    // behavioral field matches the uncharged run, and multi-agent
    // workloads get strictly cheaper steps.
    llm::LlmEngineService modeled_service;
    const auto modeled =
        runner::EpisodeRunner(1).run(paradigmBatch(&modeled_service));
    llm::LlmEngineService charged_service;
    const auto charged =
        runner::EpisodeRunner(1).run(chargedBatch(&charged_service));

    ASSERT_EQ(charged.size(), modeled.size());
    bool saw_cheaper = false;
    for (std::size_t i = 0; i < modeled.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(charged[i].success, modeled[i].success);
        EXPECT_EQ(charged[i].steps, modeled[i].steps);
        EXPECT_EQ(charged[i].llm.calls, modeled[i].llm.calls);
        EXPECT_EQ(charged[i].llm.total_latency_s,
                  modeled[i].llm.total_latency_s);
        EXPECT_EQ(charged[i].latency.grandTotal(),
                  modeled[i].latency.grandTotal());
        EXPECT_LE(charged[i].sim_seconds,
                  modeled[i].sim_seconds * (1.0 + 1e-12));
        saw_cheaper |= charged[i].sim_seconds < modeled[i].sim_seconds;
    }
    EXPECT_TRUE(saw_cheaper);
}

TEST(EngineService, SizeOneBatchesChargeExactlySequentialLatency)
{
    // Single-agent workload: every phase batch has occupancy 1, so the
    // jointBatchTime singleton rule must reproduce the sequential clock
    // — batching cannot invent savings where nothing co-batches.
    const auto &spec = workloads::workload("EmbodiedGPT");
    auto jobs_for = [&](llm::LlmEngineService *service, bool charged) {
        std::vector<runner::EpisodeJob> jobs;
        for (int seed = 1; seed <= 3; ++seed) {
            runner::EpisodeJob job;
            job.workload = &spec;
            job.config = spec.config;
            job.difficulty = env::Difficulty::Easy;
            job.seed = runner::episodeSeed(seed);
            job.engine_service = service;
            job.pipeline.batch_llm_calls = charged;
            jobs.push_back(std::move(job));
        }
        return jobs;
    };
    llm::LlmEngineService off_service;
    const auto off =
        runner::EpisodeRunner(1).run(jobs_for(&off_service, false));
    llm::LlmEngineService on_service;
    const auto on =
        runner::EpisodeRunner(1).run(jobs_for(&on_service, true));

    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(on[i].steps, off[i].steps);
        ASSERT_FALSE(on[i].llm_batches.empty());
        for (const auto &record : on[i].llm_batches) {
            EXPECT_EQ(record.requests, 1);
            EXPECT_EQ(record.batched_s, record.baseline_s);
        }
        EXPECT_NEAR(on[i].sim_seconds, off[i].sim_seconds,
                    1e-9 * off[i].sim_seconds);
    }
}

TEST(EngineService, BatchAssemblyIsDeterministicAcrossWorkerCounts)
{
    llm::LlmEngineService serial_service;
    const auto serial =
        runner::EpisodeRunner(1).run(paradigmBatch(&serial_service));

    llm::LlmEngineService parallel_service;
    const auto parallel = runner::EpisodeRunner(
        runner::EpisodeRunner::defaultJobs())
                              .run(paradigmBatch(&parallel_service));

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const auto &a = serial[i].llm_batches;
        const auto &b = parallel[i].llm_batches;
        ASSERT_EQ(a.size(), b.size());
        EXPECT_FALSE(a.empty()); // every episode makes LLM calls
        for (std::size_t r = 0; r < a.size(); ++r) {
            SCOPED_TRACE("record " + std::to_string(r));
            EXPECT_EQ(a[r].step, b[r].step);
            EXPECT_EQ(a[r].phase, b[r].phase);
            EXPECT_EQ(a[r].backend, b[r].backend);
            EXPECT_EQ(a[r].requests, b[r].requests);
            EXPECT_EQ(a[r].remote, b[r].remote);
            EXPECT_EQ(a[r].rtt_mean_s, b[r].rtt_mean_s);
            EXPECT_EQ(a[r].prefill_s, b[r].prefill_s);
            EXPECT_EQ(a[r].max_decode_s, b[r].max_decode_s);
            EXPECT_EQ(a[r].baseline_s, b[r].baseline_s);
            EXPECT_EQ(a[r].batched_s, b[r].batched_s);
            EXPECT_EQ(a[r].sim_time_s, b[r].sim_time_s);
        }
    }
}

TEST(EngineService, MultiAgentWorkloadsBatchAcrossAgents)
{
    llm::LlmEngineService service;
    std::vector<runner::EpisodeJob> jobs;
    const auto &spec = workloads::workload("CoELA"); // decentralized, 2
    for (int seed = 1; seed <= 2; ++seed) {
        runner::EpisodeJob job;
        job.workload = &spec;
        job.config = spec.config;
        job.difficulty = env::Difficulty::Easy;
        job.seed = runner::episodeSeed(seed);
        job.engine_service = &service;
        jobs.push_back(std::move(job));
    }
    const auto episodes = runner::EpisodeRunner(2).run(jobs);

    llm::BatchStats folded;
    for (const auto &episode : episodes) {
        ASSERT_FALSE(episode.llm_batches.empty());
        for (const auto &record : episode.llm_batches) {
            EXPECT_GE(record.requests, 1);
            // The central batching promise: joint inference never costs
            // more than sequential calls.
            EXPECT_LE(record.batched_s, record.baseline_s);
            EXPECT_GT(record.batched_s, 0.0);
        }
        folded.merge(llm::foldBatchLog(episode.llm_batches));
    }

    // Two agents planning/communicating/reflecting each step must yield
    // real cross-agent batches and strictly positive modeled savings.
    EXPECT_GT(folded.cross_agent_batches, 0);
    EXPECT_GT(folded.occupancy(), 1.0);
    EXPECT_LT(folded.batched_s, folded.baseline_s);
}

TEST(EngineService, MergeWindowFoldIsConservative)
{
    llm::LlmEngineService service;
    const auto episodes =
        runner::EpisodeRunner(2).run(paradigmBatch(&service));

    std::vector<std::vector<llm::BatchRecord>> logs;
    llm::BatchStats per_episode;
    for (const auto &episode : episodes) {
        // Arrival stamps are populated and non-decreasing in log order
        // (each flush stamps the episode clock, which only moves
        // forward).
        double last = 0.0;
        for (const auto &record : episode.llm_batches) {
            EXPECT_GE(record.sim_time_s, last);
            last = record.sim_time_s;
        }
        logs.push_back(episode.llm_batches);
        per_episode.merge(llm::foldBatchLog(episode.llm_batches));
    }

    const auto lockstep = llm::foldCrossEpisodeBatches(logs);

    // An infinite window IS the lockstep fold, bitwise.
    const auto infinite = llm::foldCrossEpisodeBatches(
        logs, std::numeric_limits<double>::infinity());
    EXPECT_EQ(infinite.batches, lockstep.batches);
    EXPECT_EQ(infinite.requests, lockstep.requests);
    EXPECT_EQ(infinite.baseline_s, lockstep.baseline_s);
    EXPECT_EQ(infinite.batched_s, lockstep.batched_s);

    // Any finite window refines the lockstep partition: no request is
    // lost, batch count can only grow, and the modeled savings can only
    // shrink — conservative instead of lockstep-optimistic.
    bool saw_refinement = false;
    for (const double window : {0.0, 15.0, 120.0}) {
        SCOPED_TRACE("window=" + std::to_string(window));
        const auto windowed = llm::foldCrossEpisodeBatches(logs, window);
        EXPECT_EQ(windowed.requests, lockstep.requests);
        EXPECT_GE(windowed.batches, lockstep.batches);
        EXPECT_LE(windowed.batches, per_episode.batches);
        EXPECT_NEAR(windowed.baseline_s, lockstep.baseline_s,
                    1e-9 * lockstep.baseline_s);
        EXPECT_LE(windowed.savedSeconds(),
                  lockstep.savedSeconds() * (1.0 + 1e-9) + 1e-9);
        saw_refinement |= windowed.batches > lockstep.batches;
    }
    EXPECT_TRUE(saw_refinement);

    // Arrival stamps are seed-dependent from the very first phase (the
    // sense latency precedes the first LLM flush), so a zero window
    // merges nothing: it degenerates to the per-episode fold, savings
    // included.
    const auto zero = llm::foldCrossEpisodeBatches(logs, 0.0);
    EXPECT_EQ(zero.batches, per_episode.batches);
    EXPECT_EQ(zero.requests, per_episode.requests);
    EXPECT_NEAR(zero.savedSeconds(), per_episode.savedSeconds(),
                1e-9 * per_episode.savedSeconds());
}

TEST(EngineService, CrossEpisodeFoldMergesLockstepBatches)
{
    llm::LlmEngineService service;
    const auto episodes =
        runner::EpisodeRunner(4).run(paradigmBatch(&service));

    std::vector<std::vector<llm::BatchRecord>> logs;
    llm::BatchStats per_episode;
    for (const auto &episode : episodes) {
        logs.push_back(episode.llm_batches);
        per_episode.merge(llm::foldBatchLog(episode.llm_batches));
    }

    const auto cross = llm::foldCrossEpisodeBatches(logs);
    // Merging loses no requests, only batch boundaries.
    EXPECT_EQ(cross.requests, per_episode.requests);
    EXPECT_LT(cross.batches, per_episode.batches);
    EXPECT_GT(cross.occupancy(), per_episode.occupancy());
    // Same baseline work (summation order differs, so compare to relative
    // precision), no worse — and here strictly better — joint time.
    EXPECT_NEAR(cross.baseline_s, per_episode.baseline_s,
                1e-9 * per_episode.baseline_s);
    EXPECT_LT(cross.batched_s, per_episode.batched_s);

    // Pure fold: running it again gives the same numbers bitwise.
    const auto again = llm::foldCrossEpisodeBatches(logs);
    EXPECT_EQ(again.batches, cross.batches);
    EXPECT_EQ(again.requests, cross.requests);
    EXPECT_EQ(again.baseline_s, cross.baseline_s);
    EXPECT_EQ(again.batched_s, cross.batched_s);
}

/** Field-by-field ModelProfile equality (the profile has no
 * operator==). */
bool
sameProfile(const llm::ModelProfile &a, const llm::ModelProfile &b)
{
    const auto fields = [](const llm::ModelProfile &p) {
        return std::tie(p.name, p.remote, p.api_rtt_mean_s, p.api_rtt_cv,
                        p.prefill_tok_per_s, p.decode_tok_per_s,
                        p.context_limit, p.plan_quality, p.comm_quality,
                        p.reflect_quality, p.format_compliance,
                        p.dilution_onset_tokens, p.dilution_scale_tokens);
    };
    return fields(a) == fields(b);
}

TEST(EngineService, BackendsAreSharedPerProfile)
{
    // Every profile the tree defines: each preset with its quantized and
    // LoRA-tuned variants, and every workload's three agent models.
    using llm::ModelProfile;
    std::vector<std::pair<std::string, ModelProfile>> profiles;
    for (const auto &preset :
         {ModelProfile::gpt4Api(), ModelProfile::llama3_8bLocal(),
          ModelProfile::llama13bLocal(), ModelProfile::llava7bLocal(),
          ModelProfile::llama7bLocal()}) {
        profiles.emplace_back(preset.name, preset);
        profiles.emplace_back(preset.name + " quantized",
                              ModelProfile::quantized(preset));
        profiles.emplace_back(preset.name + " LoRA",
                              ModelProfile::loraTuned(preset));
    }
    for (const auto &spec : workloads::suite()) {
        profiles.emplace_back(spec.name + " planner",
                              spec.config.planner_model);
        profiles.emplace_back(spec.name + " comm", spec.config.comm_model);
        profiles.emplace_back(spec.name + " reflect",
                              spec.config.reflect_model);
    }

    // Equal profiles share one backend; distinct profiles never do.
    int shared_pairs = 0;
    int distinct_pairs = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (std::size_t j = i + 1; j < profiles.size(); ++j) {
            const auto &[label_a, a] = profiles[i];
            const auto &[label_b, b] = profiles[j];
            if (sameProfile(a, b)) {
                ++shared_pairs;
                EXPECT_EQ(llm::backendId(a), llm::backendId(b))
                    << label_a << " vs " << label_b;
            } else {
                ++distinct_pairs;
                EXPECT_NE(llm::backendId(a), llm::backendId(b))
                    << label_a << " vs " << label_b;
            }
        }
    }
    EXPECT_GT(shared_pairs, 0);
    EXPECT_GT(distinct_pairs, 0);

    // A same-name recalibration is a different backend: JARVIS-1's
    // reflection model keeps Llama-13B's name with its own
    // reflect_quality, and must not merge into Llama-13B's batches.
    const auto llama13b = ModelProfile::llama13bLocal();
    const auto &jarvis = workloads::workload("JARVIS-1").config.reflect_model;
    ASSERT_EQ(jarvis.name, llama13b.name);
    ASSERT_NE(jarvis.reflect_quality, llama13b.reflect_quality);
    EXPECT_NE(llm::backendId(jarvis), llm::backendId(llama13b));

    // So is a faster endpoint under one name.
    auto tweaked = ModelProfile::gpt4Api();
    tweaked.decode_tok_per_s *= 2.0;
    EXPECT_NE(llm::backendId(tweaked),
              llm::backendId(ModelProfile::gpt4Api()));
}

TEST(EngineService, HandleMatchesSampleCompletion)
{
    // A handle is sampleCompletion() on its own stream plus usage
    // accounting: the session it joins never draws from the stream.
    const auto profile = llm::ModelProfile::gpt4Api();
    llm::LlmEngineService service;
    llm::EngineSession session = service.openSession();
    llm::EngineHandle handle = session.handle(profile, sim::Rng(42));
    sim::Rng reference(42);

    llm::LlmRequest request;
    request.tokens_in = 900;
    request.tokens_out_mean = 80;
    llm::LlmUsage expected;
    for (int i = 0; i < 50; ++i) {
        const auto a = llm::sampleCompletion(profile, request, reference);
        const auto b = handle.complete(request);
        expected.add(a);
        EXPECT_EQ(a.latency_s, b.latency_s);
        EXPECT_EQ(a.tokens_in, b.tokens_in);
        EXPECT_EQ(a.tokens_out, b.tokens_out);
        EXPECT_EQ(a.truncated, b.truncated);
        EXPECT_EQ(a.parse_ok, b.parse_ok);
        EXPECT_EQ(a.good, b.good);
        if (i % 7 == 6)
            session.flush(); // batch boundaries never touch the stream
    }
    EXPECT_EQ(handle.usage().calls, expected.calls);
    EXPECT_EQ(handle.usage().tokens_in, expected.tokens_in);
    EXPECT_EQ(handle.usage().tokens_out, expected.tokens_out);
    EXPECT_EQ(handle.usage().total_latency_s, expected.total_latency_s);
}

TEST(EngineService, SharedServiceIsTheDefaultRoute)
{
    const core::EpisodeOptions options;
    EXPECT_EQ(options.engine_service, &llm::LlmEngineService::shared());
    const runner::EpisodeJob job;
    EXPECT_EQ(job.engine_service, &llm::LlmEngineService::shared());
}

} // namespace
