#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "envs/boxlift_env.h"
#include "envs/boxnet_env.h"
#include "envs/household_env.h"
#include "envs/transport_env.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace ebs::core {
namespace {

AgentConfig
goodConfig()
{
    AgentConfig config;
    config.planner_model.plan_quality = 1.0;
    config.planner_model.format_compliance = 1.0;
    config.reflect_model.reflect_quality = 1.0;
    config.reflect_model.format_compliance = 1.0;
    return config;
}

TEST(SingleAgent, PerfectPlannerSolvesEasyTransport)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 1, sim::Rng(3));
    EpisodeOptions options;
    options.seed = 3;
    const auto result =
        runSingleAgent(environment, goodConfig(), options);
    EXPECT_TRUE(result.success);
    EXPECT_GT(result.steps, 0);
    EXPECT_LE(result.steps, environment.task().maxSteps());
    EXPECT_DOUBLE_EQ(result.final_progress, 1.0);
    EXPECT_GT(result.sim_seconds, 0.0);
    EXPECT_GT(result.llm.calls, 0u);
}

TEST(SingleAgent, RejectsAgentCountOtherThanOne)
{
    for (const int agents : {0, 2}) {
        envs::TransportEnv environment(env::Difficulty::Easy, agents,
                                       sim::Rng(3));
        EpisodeOptions options;
        options.seed = 3;
        try {
            runSingleAgent(environment, goodConfig(), options);
            ADD_FAILURE() << agents << "-agent environment accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "has " + std::to_string(agents)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SingleAgent, DeterministicForSameSeed)
{
    EpisodeOptions options;
    options.seed = 11;
    envs::TransportEnv env_a(env::Difficulty::Easy, 1,
                             sim::Rng(options.seed).fork(7));
    envs::TransportEnv env_b(env::Difficulty::Easy, 1,
                             sim::Rng(options.seed).fork(7));
    const auto a = runSingleAgent(env_a, goodConfig(), options);
    const auto b = runSingleAgent(env_b, goodConfig(), options);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.llm.tokens_in, b.llm.tokens_in);
}

TEST(SingleAgent, SimTimeEqualsRecorderTotalWhenSequential)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 1, sim::Rng(5));
    EpisodeOptions options;
    options.seed = 5;
    const auto result = runSingleAgent(environment, goodConfig(), options);
    EXPECT_NEAR(result.sim_seconds, result.latency.grandTotal(), 1e-6);
}

TEST(SingleAgent, MaxStepsOverrideCapsEpisode)
{
    envs::TransportEnv environment(env::Difficulty::Hard, 1, sim::Rng(7));
    EpisodeOptions options;
    options.seed = 7;
    options.max_steps_override = 3;
    AgentConfig config = goodConfig();
    config.planner_model.plan_quality = 0.0; // wander forever
    const auto result = runSingleAgent(environment, config, options);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.steps, 3);
}

TEST(SingleAgent, TokenSeriesRecordedOnRequest)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 1, sim::Rng(9));
    EpisodeOptions options;
    options.seed = 9;
    options.record_tokens = true;
    const auto result = runSingleAgent(environment, goodConfig(), options);
    ASSERT_FALSE(result.token_series.empty());
    for (const auto &sample : result.token_series)
        EXPECT_GE(sample.plan_tokens, 0);
}

TEST(SingleAgent, PlanEveryKSkipsLlmCalls)
{
    EpisodeOptions options;
    options.seed = 13;
    envs::TransportEnv env_a(env::Difficulty::Easy, 1,
                             sim::Rng(options.seed).fork(7));
    const auto base = runSingleAgent(env_a, goodConfig(), options);

    options.pipeline.plan_every_k = 3;
    envs::TransportEnv env_b(env::Difficulty::Easy, 1,
                             sim::Rng(options.seed).fork(7));
    const auto guided = runSingleAgent(env_b, goodConfig(), options);

    EXPECT_TRUE(guided.success);
    // Rec. 7: multi-step execution needs fewer planner invocations.
    EXPECT_LT(static_cast<double>(guided.llm.calls) /
                  std::max(1, guided.steps),
              static_cast<double>(base.llm.calls) / std::max(1, base.steps));
}

/**
 * Single-agent episodes as the dedicated single-agent loop produced them,
 * before runSingleAgent became the decentralized loop at n = 1: the five
 * single-agent workloads at Medium, seeds 1-3, under three pipelines
 * (0 = default, 1 = plan_every_k = 3, 2 = batch_llm_calls +
 * parallel_agents). `sim_bits` is the IEEE-754 bit pattern of
 * sim_seconds.
 */
struct PinnedSingleAgent
{
    int workload;
    int pipeline;
    int seed;
    bool success;
    int steps;
    std::uint64_t sim_bits;
    std::size_t calls;
    long tokens_in;
    long tokens_out;
};

constexpr PinnedSingleAgent kPinnedSingleAgent[] = {
    {0, 0, 1, false, 130, 0x4084552bbe42a856ULL, 130, 70435, 8932},
    {0, 0, 2, true, 78, 0x4075cf8f29f9b948ULL, 78, 41232, 5644},
    {0, 0, 3, false, 130, 0x4081beb120f3284aULL, 130, 69315, 8890},
    {0, 1, 1, false, 130, 0x4080562ba76ed118ULL, 77, 40929, 5367},
    {0, 1, 2, true, 110, 0x407ab97cec427373ULL, 48, 25639, 3417},
    {0, 1, 3, true, 123, 0x407f5393631593b0ULL, 66, 34894, 4491},
    {0, 2, 1, false, 130, 0x4084552bbe42a85eULL, 130, 70435, 8932},
    {0, 2, 2, true, 78, 0x4075cf8f29f9b94cULL, 78, 41232, 5644},
    {0, 2, 3, false, 130, 0x4081beb120f32851ULL, 130, 69315, 8890},
    {1, 0, 1, true, 34, 0x40773e71007ba144ULL, 68, 57258, 5599},
    {1, 0, 2, true, 31, 0x4074304596887cdcULL, 62, 52090, 4889},
    {1, 0, 3, true, 22, 0x406d066362cd7c1fULL, 44, 35760, 3558},
    {1, 1, 1, true, 57, 0x4076133b66f04641ULL, 80, 51550, 5483},
    {1, 1, 2, true, 46, 0x40714e49d94da29eULL, 64, 40548, 4209},
    {1, 1, 3, true, 21, 0x40613aa19094da35ULL, 29, 17186, 1973},
    {1, 2, 1, true, 34, 0x40773e71007ba147ULL, 68, 57258, 5599},
    {1, 2, 2, true, 31, 0x4074304596887cdfULL, 62, 52090, 4889},
    {1, 2, 3, true, 22, 0x406d066362cd7c24ULL, 44, 35760, 3558},
    {2, 0, 1, true, 34, 0x407224d95e56b510ULL, 68, 38635, 3309},
    {2, 0, 2, true, 30, 0x406d8357aa792388ULL, 60, 34273, 2865},
    {2, 0, 3, true, 52, 0x407ddca467f8e550ULL, 104, 63057, 4866},
    {2, 1, 1, true, 30, 0x40710b093c7304d6ULL, 45, 22176, 1925},
    {2, 1, 2, false, 70, 0x407be5612791e01cULL, 102, 53085, 4497},
    {2, 1, 3, false, 70, 0x407756a0bad3d496ULL, 105, 54103, 4376},
    {2, 2, 1, true, 34, 0x407224d95e56b511ULL, 68, 38635, 3309},
    {2, 2, 2, true, 30, 0x406d8357aa79238cULL, 60, 34273, 2865},
    {2, 2, 3, true, 52, 0x407ddca467f8e555ULL, 104, 63057, 4866},
    {3, 0, 1, true, 73, 0x408f7f99aaffb58cULL, 146, 131692, 14186},
    {3, 0, 2, true, 82, 0x409100c90b431ba1ULL, 164, 147928, 15610},
    {3, 0, 3, true, 64, 0x408a2b461e60639dULL, 128, 115456, 12108},
    {3, 1, 1, true, 70, 0x40837e74bee6ee4aULL, 98, 70672, 7927},
    {3, 1, 2, true, 52, 0x407ccb31703c16d0ULL, 73, 52764, 5793},
    {3, 1, 3, true, 44, 0x4078030b2cbb955cULL, 62, 44952, 4941},
    {3, 2, 1, true, 73, 0x408f7f99aaffb59eULL, 146, 131692, 14186},
    {3, 2, 2, true, 82, 0x409100c90b431badULL, 164, 147928, 15610},
    {3, 2, 3, true, 64, 0x408a2b461e6063a9ULL, 128, 115456, 12108},
    {4, 0, 1, true, 18, 0x4065afe8e107ee53ULL, 36, 25272, 2706},
    {4, 0, 2, true, 19, 0x40688829e32c6079ULL, 38, 26676, 2920},
    {4, 0, 3, true, 18, 0x40659e4c9fa6ecd2ULL, 36, 25272, 2721},
    {4, 1, 1, true, 17, 0x4055eed1aa06f839ULL, 24, 11628, 1079},
    {4, 1, 2, true, 20, 0x405e2955eab89c66ULL, 30, 15840, 1572},
    {4, 1, 3, true, 17, 0x4055eced8bb4e284ULL, 24, 11628, 1162},
    {4, 2, 1, true, 18, 0x4065afe8e107ee54ULL, 36, 25272, 2706},
    {4, 2, 2, true, 19, 0x40688829e32c607cULL, 38, 26676, 2920},
    {4, 2, 3, true, 18, 0x40659e4c9fa6ecd5ULL, 36, 25272, 2721},
};

TEST(SingleAgent, MatchesPinnedEpisodes)
{
    const char *const names[] = {"EmbodiedGPT", "JARVIS-1", "DaDu-E", "MP5",
                                 "DEPS"};
    for (const PinnedSingleAgent &pinned : kPinnedSingleAgent) {
        const auto &spec = workloads::workload(
            names[static_cast<std::size_t>(pinned.workload)]);
        ASSERT_EQ(spec.paradigm, workloads::Paradigm::SingleModular);
        EpisodeOptions options;
        options.seed = static_cast<std::uint64_t>(pinned.seed);
        if (pinned.pipeline == 1)
            options.pipeline.plan_every_k = 3;
        if (pinned.pipeline == 2) {
            options.pipeline.batch_llm_calls = true;
            options.pipeline.parallel_agents = true;
        }
        const auto result = spec.run(env::Difficulty::Medium, options);
        SCOPED_TRACE(spec.name + " pipeline " +
                     std::to_string(pinned.pipeline) + " seed " +
                     std::to_string(pinned.seed));
        EXPECT_EQ(result.success, pinned.success);
        EXPECT_EQ(result.steps, pinned.steps);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(result.sim_seconds),
                  pinned.sim_bits);
        EXPECT_EQ(result.llm.calls, pinned.calls);
        EXPECT_EQ(result.llm.tokens_in, pinned.tokens_in);
        EXPECT_EQ(result.llm.tokens_out, pinned.tokens_out);
    }
}

TEST(Centralized, SolvesHouseholdWithPerfectPlanner)
{
    envs::HouseholdEnv environment(env::Difficulty::Easy, 3, sim::Rng(15));
    EpisodeOptions options;
    options.seed = 15;
    AgentConfig config = goodConfig();
    config.has_sensing = false;
    config.has_communication = true;
    const auto result = runCentralized(environment, config, options);
    EXPECT_TRUE(result.success);
    EXPECT_GT(result.messages_generated, 0);
    // The central planner and instruction broadcast both charge latency.
    EXPECT_GT(result.latency.total(stats::ModuleKind::Planning), 0.0);
    EXPECT_GT(result.latency.total(stats::ModuleKind::Communication), 0.0);
}

TEST(Centralized, DeterministicForSameSeed)
{
    EpisodeOptions options;
    options.seed = 17;
    AgentConfig config = goodConfig();
    config.has_communication = true;
    envs::BoxNetEnv env_a(env::Difficulty::Easy, 2,
                          sim::Rng(options.seed).fork(7));
    envs::BoxNetEnv env_b(env::Difficulty::Easy, 2,
                          sim::Rng(options.seed).fork(7));
    const auto a = runCentralized(env_a, config, options);
    const auto b = runCentralized(env_b, config, options);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(Decentralized, SolvesTransportWithDialogue)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 2, sim::Rng(19));
    EpisodeOptions options;
    options.seed = 19;
    AgentConfig config = goodConfig();
    config.has_communication = true;
    const auto result = runDecentralized(environment, config, options);
    EXPECT_TRUE(result.success);
    EXPECT_GT(result.messages_generated, 0);
    EXPECT_LE(result.messages_useful, result.messages_generated);
}

TEST(Decentralized, MessageUtilityMatchesPaperObservation)
{
    envs::TransportEnv environment(env::Difficulty::Medium, 2,
                                   sim::Rng(21));
    EpisodeOptions options;
    options.seed = 21;
    AgentConfig config = goodConfig();
    config.has_communication = true;
    config.comm_model.comm_quality = 1.0;
    config.comm_model.format_compliance = 1.0;
    config.message_utility = 0.2;
    const auto result = runDecentralized(environment, config, options);
    ASSERT_GT(result.messages_generated, 20);
    const double utility = static_cast<double>(result.messages_useful) /
                           result.messages_generated;
    EXPECT_NEAR(utility, 0.2, 0.12); // ~20% of messages matter
}

TEST(Decentralized, CommOnDemandCutsMessageVolume)
{
    EpisodeOptions options;
    options.seed = 23;
    AgentConfig config = goodConfig();
    config.has_communication = true;

    envs::TransportEnv env_a(env::Difficulty::Easy, 2,
                             sim::Rng(options.seed).fork(7));
    const auto pre = runDecentralized(env_a, config, options);

    options.pipeline.comm_on_demand = true;
    envs::TransportEnv env_b(env::Difficulty::Easy, 2,
                             sim::Rng(options.seed).fork(7));
    const auto on_demand = runDecentralized(env_b, config, options);

    ASSERT_GT(pre.steps, 0);
    ASSERT_GT(on_demand.steps, 0);
    EXPECT_LT(static_cast<double>(on_demand.messages_generated) /
                  on_demand.steps,
              static_cast<double>(pre.messages_generated) / pre.steps);
}

TEST(Decentralized, ParallelAgentsShortenWallClock)
{
    EpisodeOptions options;
    options.seed = 25;
    AgentConfig config = goodConfig();
    config.has_communication = true;

    envs::TransportEnv env_a(env::Difficulty::Easy, 3,
                             sim::Rng(options.seed).fork(7));
    const auto sequential = runDecentralized(env_a, config, options);

    options.pipeline.parallel_agents = true;
    envs::TransportEnv env_b(env::Difficulty::Easy, 3,
                             sim::Rng(options.seed).fork(7));
    const auto parallel = runDecentralized(env_b, config, options);

    EXPECT_LT(parallel.secondsPerStep(), sequential.secondsPerStep());
    // Work done (recorder totals) stays comparable; only makespan shrinks.
    EXPECT_LT(parallel.sim_seconds, parallel.latency.grandTotal());
}

TEST(Decentralized, ClockComposesBatchAndParallelDiscounts)
{
    // Regression pin for the advanceBy split: serial, batch-only,
    // parallel-only, and both. The ablations never touch behavior —
    // identical steps, responses, and recorder totals — only the clock.
    AgentConfig config = goodConfig();
    config.has_communication = true;

    auto run = [&](bool parallel, bool batch) {
        EpisodeOptions options;
        options.seed = 35;
        options.pipeline.parallel_agents = parallel;
        options.pipeline.batch_llm_calls = batch;
        envs::TransportEnv environment(env::Difficulty::Easy, 3,
                                       sim::Rng(options.seed).fork(7));
        return runDecentralized(environment, config, options);
    };
    const auto serial = run(false, false);
    const auto batch_only = run(false, true);
    const auto parallel_only = run(true, false);
    const auto both = run(true, true);

    for (const auto *r : {&batch_only, &parallel_only, &both}) {
        EXPECT_EQ(r->steps, serial.steps);
        EXPECT_EQ(r->success, serial.success);
        EXPECT_EQ(r->llm.calls, serial.llm.calls);
        EXPECT_EQ(r->llm.total_latency_s, serial.llm.total_latency_s);
        EXPECT_EQ(r->latency.grandTotal(), serial.latency.grandTotal());
    }

    // Serial charges the full recorder total.
    EXPECT_NEAR(serial.sim_seconds, serial.latency.grandTotal(),
                1e-6 * serial.sim_seconds);

    // Batch-only: non-LLM latency keeps its serial sum — the clock drops
    // by exactly the joint-batch savings of the assembled batches, NOT by
    // the parallel-pipelines concurrency discount (the old shared branch
    // silently discounted motion/planning costs too).
    double savings = 0.0;
    for (const auto &record : batch_only.llm_batches)
        savings += record.baseline_s - record.batched_s;
    EXPECT_GT(savings, 0.0);
    EXPECT_NEAR(batch_only.sim_seconds, serial.sim_seconds - savings,
                1e-9 * serial.sim_seconds);

    // Parallel-only keeps the max-over-agents rule on the full phase
    // latency; combining both ablations must stack the non-LLM discount
    // on top of the batch charge.
    EXPECT_LT(parallel_only.sim_seconds, serial.sim_seconds);
    EXPECT_LT(both.sim_seconds, batch_only.sim_seconds);
    EXPECT_LT(both.sim_seconds, serial.sim_seconds);
}

TEST(Decentralized, ChargedBatchLatencyMatchesJointBatchTime)
{
    // Acceptance pin: a 2-agent episode with batch_llm_calls on charges
    // the clock min(summed prefill + longest decode [+ one RTT],
    // sequential sum) per (phase, backend) batch — recomputed here from
    // each record's raw fields, and reconciled against the clock total.
    AgentConfig config = goodConfig();
    config.has_communication = true;
    EpisodeOptions options;
    options.seed = 37;
    options.pipeline.batch_llm_calls = true;
    envs::TransportEnv environment(env::Difficulty::Easy, 2,
                                   sim::Rng(options.seed).fork(7));
    const auto result = runDecentralized(environment, config, options);

    ASSERT_FALSE(result.llm_batches.empty());
    double baseline_total = 0.0;
    double batched_total = 0.0;
    bool saw_cross_agent = false;
    for (const auto &record : result.llm_batches) {
        double joint = record.prefill_s + record.max_decode_s;
        if (record.remote)
            joint += record.rtt_mean_s;
        const double expected = record.requests <= 1
                                    ? record.baseline_s
                                    : std::min(joint, record.baseline_s);
        EXPECT_EQ(record.batched_s, expected);
        baseline_total += record.baseline_s;
        batched_total += record.batched_s;
        saw_cross_agent |= record.requests > 1;
    }
    EXPECT_TRUE(saw_cross_agent);

    // Every sampled LLM latency flows through exactly one batch...
    EXPECT_NEAR(baseline_total, result.llm.total_latency_s,
                1e-9 * baseline_total);
    // ...so the clock is the recorder total minus the joint-batch
    // savings: s_per_step now reflects jointBatchTime end-to-end.
    EXPECT_NEAR(result.sim_seconds,
                result.latency.grandTotal() -
                    (baseline_total - batched_total),
                1e-9 * result.sim_seconds);
}

TEST(Hierarchical, ChargedBatchingPricesClusterPlansJointly)
{
    // The cluster leads' per-cluster joint plans are independent and
    // flush as one cross-cluster batch; charging must price them at one
    // jointBatchTime, shrinking the episode clock below the serial sum.
    AgentConfig config = goodConfig();
    config.has_communication = true;
    auto run = [&](bool batch) {
        EpisodeOptions options;
        options.seed = 39;
        options.pipeline.batch_llm_calls = batch;
        envs::TransportEnv environment(env::Difficulty::Easy, 6,
                                       sim::Rng(options.seed).fork(7));
        return runHierarchical(environment, config, options,
                               /*cluster_size=*/3);
    };
    const auto sequential = run(false);
    const auto charged = run(true);
    EXPECT_EQ(charged.steps, sequential.steps);
    EXPECT_EQ(charged.latency.grandTotal(),
              sequential.latency.grandTotal());
    EXPECT_LT(charged.sim_seconds, sequential.sim_seconds);
}

TEST(Hierarchical, SolvesTransportWithClusters)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 6, sim::Rng(29));
    EpisodeOptions options;
    options.seed = 29;
    AgentConfig config = goodConfig();
    config.has_communication = true;
    const auto result =
        runHierarchical(environment, config, options, /*cluster_size=*/3);
    EXPECT_TRUE(result.success);
    EXPECT_GT(result.steps, 0);
    EXPECT_GT(result.llm.calls, 0u);
}

TEST(Hierarchical, FewerLlmCallsThanDecentralizedAtScale)
{
    EpisodeOptions options;
    options.seed = 31;
    AgentConfig config = goodConfig();
    config.has_communication = true;

    envs::TransportEnv env_a(env::Difficulty::Easy, 8,
                             sim::Rng(options.seed).fork(7));
    const auto flat = runDecentralized(env_a, config, options);
    envs::TransportEnv env_b(env::Difficulty::Easy, 8,
                             sim::Rng(options.seed).fork(7));
    const auto clustered = runHierarchical(env_b, config, options, 3);

    ASSERT_GT(flat.steps, 0);
    ASSERT_GT(clustered.steps, 0);
    EXPECT_LT(static_cast<double>(clustered.llm.calls) / clustered.steps,
              static_cast<double>(flat.llm.calls) / flat.steps);
}

TEST(Hierarchical, DegeneratesGracefully)
{
    // cluster_size >= n behaves like one centralized cluster.
    envs::TransportEnv environment(env::Difficulty::Easy, 2, sim::Rng(33));
    EpisodeOptions options;
    options.seed = 33;
    AgentConfig config = goodConfig();
    const auto result =
        runHierarchical(environment, config, options, /*cluster_size=*/10);
    EXPECT_TRUE(result.success);
}

TEST(Decentralized, TokenSeriesCoversAllAgents)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 2, sim::Rng(27));
    EpisodeOptions options;
    options.seed = 27;
    options.record_tokens = true;
    AgentConfig config = goodConfig();
    config.has_communication = true;
    const auto result = runDecentralized(environment, config, options);
    bool agent0 = false, agent1 = false;
    for (const auto &sample : result.token_series) {
        agent0 |= sample.agent == 0;
        agent1 |= sample.agent == 1;
    }
    EXPECT_TRUE(agent0);
    EXPECT_TRUE(agent1);
}

TEST(SpeculativeExecute, MatchesSerialAndCommitsCleanTurns)
{
    EpisodeOptions options;
    options.seed = 91;
    envs::HouseholdEnv env_serial(env::Difficulty::Medium, 4,
                                  sim::Rng(options.seed).fork(2));
    const auto serial = runDecentralized(env_serial, goodConfig(), options);

    envs::HouseholdEnv env_spec(env::Difficulty::Medium, 4,
                                sim::Rng(options.seed).fork(2));
    options.pipeline.speculative_execute = true;
    const auto spec = runDecentralized(env_spec, goodConfig(), options);

    test::expectSameSimulation(serial, spec);
    const auto &tally = spec.spec_exec;
    EXPECT_EQ(tally.turns, static_cast<long long>(serial.steps) * 4);
    EXPECT_GT(tally.committed, 0);
    EXPECT_EQ(tally.speculated,
              tally.committed + tally.conflicts + tally.aborted);
    // Clean commits overlap, so the modeled critical path can only shrink.
    EXPECT_LE(tally.exec_critical_s, tally.exec_total_s + 1e-12);
}

TEST(SpeculativeExecute, FullyConflictingTeamDegradesToSerialSchedule)
{
    // BoxLift's Lift primitive is a same-step cross-agent dependency
    // whose votes no access key names, so every turn that lifts a box is
    // counted as aborted. A team whose whole phase conflicts must still
    // land on the serial schedule bit for bit, with the modeled critical
    // path collapsing back toward the serial sum.
    EpisodeOptions options;
    options.seed = 57;
    envs::BoxLiftEnv env_serial(env::Difficulty::Easy, 3,
                                sim::Rng(options.seed).fork(2));
    const auto serial = runDecentralized(env_serial, goodConfig(), options);

    envs::BoxLiftEnv env_spec(env::Difficulty::Easy, 3,
                              sim::Rng(options.seed).fork(2));
    options.pipeline.speculative_execute = true;
    const auto spec = runDecentralized(env_spec, goodConfig(), options);

    test::expectSameSimulation(serial, spec);
    ASSERT_TRUE(spec.success);
    EXPECT_GT(spec.spec_exec.aborted, 0); // lifts cannot be validated
    EXPECT_EQ(spec.spec_exec.speculated,
              spec.spec_exec.committed + spec.spec_exec.conflicts +
                  spec.spec_exec.aborted);

    // An llm-direct team skips speculation wholesale — the degenerate
    // fully-conflicting case. The phase must run the serial schedule with
    // zero speculative win and zero speculative loss.
    EpisodeOptions direct = options;
    direct.pipeline.speculative_execute = false;
    AgentConfig config = goodConfig();
    config.has_execution = false;
    envs::BoxLiftEnv env_direct_serial(env::Difficulty::Easy, 3,
                                       sim::Rng(options.seed).fork(2));
    const auto direct_serial =
        runDecentralized(env_direct_serial, config, direct);
    direct.pipeline.speculative_execute = true;
    envs::BoxLiftEnv env_direct_spec(env::Difficulty::Easy, 3,
                                     sim::Rng(options.seed).fork(2));
    const auto direct_spec =
        runDecentralized(env_direct_spec, config, direct);
    test::expectSameSimulation(direct_serial, direct_spec);
    EXPECT_EQ(direct_spec.spec_exec.speculated, 0);
    EXPECT_EQ(direct_spec.spec_exec.committed, 0);
    EXPECT_DOUBLE_EQ(direct_spec.spec_exec.exec_critical_s,
                     direct_spec.spec_exec.exec_total_s);
}

/**
 * Run a decentralized 2-agent transport episode (seed 3) with `pipeline`
 * and `config`, and return the std::invalid_argument message, or "" when
 * it ran.
 */
std::string
rejection(const PipelineOptions &pipeline,
          const AgentConfig &config = goodConfig())
{
    envs::TransportEnv environment(env::Difficulty::Easy, 2, sim::Rng(3));
    EpisodeOptions options;
    options.seed = 3;
    options.pipeline = pipeline;
    try {
        const auto result = runDecentralized(environment, config, options);
        EXPECT_TRUE(std::isfinite(result.sim_seconds));
        EXPECT_GE(result.sim_seconds, 0.0);
        return "";
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
}

TEST(PipelineValidation, RejectsCompressionOutsideUnitInterval)
{
    // Unchecked, NaN reaches the prompt arithmetic and drives the clock
    // to about -6e6 simulated seconds.
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -0.5,
                             1.5}) {
        PipelineOptions pipeline;
        pipeline.context_compression = bad;
        EXPECT_NE(rejection(pipeline).find("context_compression"),
                  std::string::npos)
            << bad;
    }
}

TEST(PipelineValidation, RejectsPlanPeriodBelowOne)
{
    // A period below one step is an error, not a request for k = 1.
    for (const int bad : {0, -5}) {
        PipelineOptions pipeline;
        pipeline.plan_every_k = bad;
        EXPECT_NE(rejection(pipeline).find("plan_every_k"),
                  std::string::npos)
            << bad;
    }
}

TEST(PipelineValidation, AcceptsBoundaryValues)
{
    PipelineOptions pipeline;
    pipeline.context_compression = 1.0;
    pipeline.plan_every_k = 1;
    EXPECT_EQ(rejection(pipeline), "");
    // Below the prompt model's 0.05 floor is still a valid ratio: the
    // floor clamps it.
    pipeline.context_compression = 0.01;
    pipeline.plan_every_k = 3;
    EXPECT_EQ(rejection(pipeline), "");
}

TEST(PipelineValidation, EveryParadigmValidates)
{
    EpisodeOptions options;
    options.pipeline.plan_every_k = 0;
    envs::TransportEnv solo(env::Difficulty::Easy, 1, sim::Rng(3));
    EXPECT_THROW(runSingleAgent(solo, goodConfig(), options),
                 std::invalid_argument);
    envs::TransportEnv team(env::Difficulty::Easy, 2, sim::Rng(3));
    EXPECT_THROW(runCentralized(team, goodConfig(), options),
                 std::invalid_argument);
    EXPECT_THROW(runHierarchical(team, goodConfig(), options, 1),
                 std::invalid_argument);
}

TEST(HierarchicalValidation, RejectsClusterSizeBelowOne)
{
    // A cluster size below one is an error, not a request for k = 1.
    for (const int bad : {0, -5}) {
        envs::TransportEnv team(env::Difficulty::Easy, 2, sim::Rng(3));
        try {
            runHierarchical(team, goodConfig(), {}, bad);
            ADD_FAILURE() << "cluster_size " << bad << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("cluster_size"),
                      std::string::npos)
                << e.what();
        }
    }
}

/** rejection() for an AgentConfig with `edit` applied to its defaults. */
template <typename Edit>
std::string
configRejection(Edit edit)
{
    AgentConfig config;
    edit(config);
    return rejection({}, config);
}

TEST(AgentConfigValidation, RejectsNegativeMoveCost)
{
    // Unchecked, this episode ends at -14.5 simulated seconds.
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.lat.move_per_cell_s = -1.0;
              }).find("move_per_cell_s"),
              std::string::npos);
}

TEST(AgentConfigValidation, RejectsNegativeTokenCount)
{
    // Unchecked, this episode ends at -142.1 simulated seconds.
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.lat.plan_prompt_base = -100000;
              }).find("plan_prompt_base"),
              std::string::npos);
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.lat.comm_out_tokens = -1;
              }).find("comm_out_tokens"),
              std::string::npos);
}

TEST(AgentConfigValidation, RejectsNonFiniteLatency)
{
    // Unchecked, NaN propagates to sim_seconds.
    for (const double bad : {std::nan(""), HUGE_VAL}) {
        EXPECT_NE(configRejection([bad](AgentConfig &c) {
                      c.lat.move_per_cell_s = bad;
                  }).find("move_per_cell_s"),
                  std::string::npos)
            << bad;
        EXPECT_NE(configRejection([bad](AgentConfig &c) {
                      c.lat.sensing.mean_s = bad;
                  }).find("sensing.mean_s"),
                  std::string::npos)
            << bad;
        EXPECT_NE(configRejection([bad](AgentConfig &c) {
                      c.lat.motion_planner.cv = bad;
                  }).find("motion_planner.cv"),
                  std::string::npos)
            << bad;
    }
}

TEST(AgentConfigValidation, RejectsProbabilityOutsideUnitInterval)
{
    // Unchecked, a hallucination rate of 7 is accepted silently.
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.hallucination_rate = 7.0;
              }).find("hallucination_rate"),
              std::string::npos);
    const std::pair<const char *, double AgentConfig::*> fields[] = {
        {"message_utility", &AgentConfig::message_utility},
        {"phantom_completion", &AgentConfig::phantom_completion},
        {"env_feedback_detection", &AgentConfig::env_feedback_detection},
        {"actuation_failure", &AgentConfig::actuation_failure}};
    for (const auto &[name, field] : fields) {
        for (const double bad : {-0.1, 1.5, std::nan("")}) {
            EXPECT_NE(configRejection([field = field, bad](AgentConfig &c) {
                          c.*field = bad;
                      }).find(name),
                      std::string::npos)
                << name << " " << bad;
        }
    }
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.lat.sensing_miss_rate = -0.5;
              }).find("sensing_miss_rate"),
              std::string::npos);
}

TEST(AgentConfigValidation, RejectsBadPlanningComplexity)
{
    // Unchecked, NaN passes std::clamp into the completion's quality
    // term and silently makes every plan bad.
    const std::pair<const char *, double AgentConfig::*> fields[] = {
        {"central_joint_complexity", &AgentConfig::central_joint_complexity},
        {"decentralized_complexity", &AgentConfig::decentralized_complexity}};
    for (const auto &[name, field] : fields) {
        for (const double bad : {std::nan(""), HUGE_VAL, -0.1}) {
            EXPECT_NE(configRejection([field = field, bad](AgentConfig &c) {
                          c.*field = bad;
                      }).find(name),
                      std::string::npos)
                << name << " " << bad;
        }
    }
}

TEST(AgentConfigValidation, RejectsNonPositiveModelThroughput)
{
    // Unchecked, a negative decode rate ends the episode at 242.1
    // simulated seconds instead of 598.6, and a zero prefill rate at NaN.
    const std::string decode = configRejection([](AgentConfig &c) {
        c.planner_model.decode_tok_per_s = -50.0;
    });
    EXPECT_NE(decode.find("planner_model.decode_tok_per_s"),
              std::string::npos)
        << decode;
    EXPECT_NE(decode.find(llm::ModelProfile::gpt4Api().name),
              std::string::npos)
        << decode;
    for (const double bad : {0.0, std::nan(""), HUGE_VAL}) {
        EXPECT_NE(configRejection([bad](AgentConfig &c) {
                      c.planner_model.prefill_tok_per_s = bad;
                  }).find("planner_model.prefill_tok_per_s"),
                  std::string::npos)
            << bad;
    }
}

TEST(AgentConfigValidation, RejectsNegativeModelRtt)
{
    // Unchecked, a negative RTT mean on a remote reflect model turns the
    // lognormal RTT draw, and with it sim_seconds, into NaN.
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.reflect_model.api_rtt_mean_s = -30.0;
              }).find("reflect_model.api_rtt_mean_s"),
              std::string::npos);
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.comm_model.api_rtt_cv = std::nan("");
              }).find("comm_model.api_rtt_cv"),
              std::string::npos);
}

TEST(AgentConfigValidation, RejectsModelQualityOutsideUnitInterval)
{
    // Unchecked, a plan quality of 3 is accepted silently.
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.planner_model.plan_quality = 3.0;
              }).find("planner_model.plan_quality"),
              std::string::npos);
    const std::pair<const char *, double llm::ModelProfile::*> fields[] = {
        {"comm_quality", &llm::ModelProfile::comm_quality},
        {"reflect_quality", &llm::ModelProfile::reflect_quality},
        {"format_compliance", &llm::ModelProfile::format_compliance}};
    for (const auto &[name, field] : fields) {
        for (const double bad : {-0.1, 1.5, std::nan("")}) {
            EXPECT_NE(configRejection([field = field, bad](AgentConfig &c) {
                          c.comm_model.*field = bad;
                      }).find(name),
                      std::string::npos)
                << name << " " << bad;
        }
    }
}

TEST(AgentConfigValidation, RejectsBadModelWindowAndDilution)
{
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.planner_model.context_limit = 0;
              }).find("context_limit"),
              std::string::npos);
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.reflect_model.dilution_onset_tokens = -1.0;
              }).find("dilution_onset_tokens"),
              std::string::npos);
    for (const double bad : {0.0, -100.0, std::nan("")}) {
        EXPECT_NE(configRejection([bad](AgentConfig &c) {
                      c.comm_model.dilution_scale_tokens = bad;
                  }).find("dilution_scale_tokens"),
                  std::string::npos)
            << bad;
    }
}

TEST(AgentConfigValidation, RejectsBadMemoryConfig)
{
    // Unchecked, a retrieval base of -50 s ends this episode (with
    // communication on) at -1198.9 simulated seconds.
    AgentConfig probe;
    probe.has_communication = true;
    probe.memory.retrieval_base_s = -50.0;
    EXPECT_NE(rejection({}, probe).find("AgentConfig::memory.retrieval_base_s"),
              std::string::npos);
    using Config = memory::MemoryModule::Config;
    const std::pair<const char *, double Config::*> fields[] = {
        {"memory.retrieval_base_s", &Config::retrieval_base_s},
        {"memory.retrieval_per_record_s", &Config::retrieval_per_record_s},
        {"memory.inconsistency_rate", &Config::inconsistency_rate}};
    for (const auto &[name, field] : fields) {
        for (const double bad : {-1e-3, std::nan(""), HUGE_VAL}) {
            EXPECT_NE(configRejection([field = field, bad](AgentConfig &c) {
                          c.memory.*field = bad;
                      }).find(name),
                      std::string::npos)
                << name << " " << bad;
        }
    }
    EXPECT_NE(configRejection([](AgentConfig &c) {
                  c.memory.inconsistency_onset = -1;
              }).find("AgentConfig::memory.inconsistency_onset"),
              std::string::npos);
}

TEST(AgentConfigValidation, AcceptsBoundaryValues)
{
    EXPECT_EQ(configRejection([](AgentConfig &c) {
                  c.lat.move_per_cell_s = 0.0;
                  c.lat.plan_out_tokens = 0;
                  c.hallucination_rate = 1.0;
                  c.actuation_failure = 0.0;
                  c.central_joint_complexity = 0.0;
                  c.decentralized_complexity = 0.0;
                  c.planner_model.plan_quality = 1.0;
                  c.comm_model.format_compliance = 1.0;
                  c.reflect_model.reflect_quality = 0.0;
                  c.reflect_model.api_rtt_cv = 0.0;
                  c.planner_model.context_limit = 1;
                  c.comm_model.dilution_onset_tokens = 0.0;
                  c.memory.retrieval_base_s = 0.0;
                  c.memory.retrieval_per_record_s = 0.0;
                  c.memory.inconsistency_rate = 0.0;
                  c.memory.inconsistency_onset = 0;
              }),
              "");
}

/** Run a single-agent transport episode (Easy, seed 3) with `edit`
 * applied to default options; return the std::invalid_argument message,
 * or "" when it ran. */
template <typename Edit>
std::string
optionsRejection(Edit edit)
{
    envs::TransportEnv environment(env::Difficulty::Easy, 1, sim::Rng(3));
    EpisodeOptions options;
    options.seed = 3;
    edit(options);
    try {
        runSingleAgent(environment, goodConfig(), options);
        return "";
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
}

TEST(EpisodeOptionsValidation, RejectsNullEngineService)
{
    EXPECT_NE(optionsRejection([](EpisodeOptions &o) {
                  o.engine_service = nullptr;
              }).find("EpisodeOptions::engine_service"),
              std::string::npos);
}

TEST(EpisodeOptionsValidation, RejectsNullPhaseWall)
{
    // Unchecked, this episode segfaults at its first phase.
    EXPECT_NE(optionsRejection([](EpisodeOptions &o) {
                  o.phase_wall = nullptr;
              }).find("EpisodeOptions::phase_wall"),
              std::string::npos);
    EXPECT_EQ(optionsRejection([](EpisodeOptions &) {}), "");
}

} // namespace
} // namespace ebs::core
