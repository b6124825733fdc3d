#include <gtest/gtest.h>

#include <memory>

#include "core/coordinator.h"
#include "test_util.h"
#include "envs/boxlift_env.h"
#include "envs/boxnet_env.h"
#include "envs/craft_env.h"
#include "envs/household_env.h"
#include "envs/kitchen_env.h"
#include "envs/manipulation_env.h"
#include "envs/transport_env.h"
#include "envs/warehouse_env.h"
#include "plan/controller.h"

namespace ebs {
namespace {

using env::Difficulty;

std::unique_ptr<env::Environment>
makeByIndex(int index, Difficulty difficulty, int agents, sim::Rng rng)
{
    switch (index) {
      case 0:
        return std::make_unique<envs::TransportEnv>(difficulty, agents,
                                                    rng);
      case 1:
        return std::make_unique<envs::KitchenEnv>(difficulty, agents, rng);
      case 2:
        return std::make_unique<envs::HouseholdEnv>(difficulty, agents,
                                                    rng);
      case 3:
        return std::make_unique<envs::CraftEnv>(difficulty, agents, rng);
      case 4:
        return std::make_unique<envs::BoxNetEnv>(difficulty, agents, rng);
      case 5:
        return std::make_unique<envs::WarehouseEnv>(difficulty, agents,
                                                    rng);
      case 6:
        return std::make_unique<envs::BoxLiftEnv>(difficulty, agents, rng);
      default:
        return std::make_unique<envs::ManipulationEnv>(difficulty, agents,
                                                       rng);
    }
}

/** World invariants that must hold after ANY sequence of primitives. */
void
checkWorldInvariants(const env::Environment &environment)
{
    const env::World &world = environment.world();
    const env::GridMap &grid = world.grid();

    for (int a = 0; a < world.agentCount(); ++a) {
        const auto &body = world.agent(a);
        // Agents stand on walkable cells and never stack.
        ASSERT_TRUE(grid.walkable(body.pos));
        for (int b = a + 1; b < world.agentCount(); ++b)
            ASSERT_FALSE(world.agent(b).pos == body.pos);
        // Carried-object linkage is symmetric.
        if (body.carrying != env::kNoObject) {
            const auto &obj = world.object(body.carrying);
            ASSERT_EQ(obj.held_by, a);
            ASSERT_EQ(obj.inside, env::kNoObject);
        }
    }

    for (const auto &obj : world.objects()) {
        // Holder back-link consistency.
        if (obj.held_by >= 0) {
            ASSERT_LT(obj.held_by, world.agentCount());
            ASSERT_EQ(world.agent(obj.held_by).carrying, obj.id);
        }
        // Container links point to real containers (or target zones).
        if (obj.inside != env::kNoObject) {
            const auto &host = world.object(obj.inside);
            ASSERT_TRUE(host.cls == env::ObjectClass::Container ||
                        host.cls == env::ObjectClass::Target);
            ASSERT_NE(obj.inside, obj.id);
        }
        // Effective position stays in bounds.
        ASSERT_TRUE(grid.inBounds(world.effectivePos(obj.id)));
    }

    // Progress is a valid fraction.
    const double progress = environment.task().progress(world);
    ASSERT_GE(progress, 0.0);
    ASSERT_LE(progress, 1.0 + 1e-9);
}

/** Fuzz the spatial/domain layer with random primitives per environment
 * and seed; the world must never reach an inconsistent state. */
class PrimitiveFuzz : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PrimitiveFuzz, RandomPrimitivesKeepWorldConsistent)
{
    const auto [env_index, seed] = GetParam();
    sim::Rng rng(static_cast<std::uint64_t>(seed) * 733 + 17);
    auto environment =
        makeByIndex(env_index, Difficulty::Medium, 3, rng.fork(1));
    const int n_objects =
        static_cast<int>(environment->world().objects().size());

    for (int i = 0; i < 600; ++i) {
        if (i % 20 == 0)
            environment->beginStep();
        const int agent = rng.uniformInt(0, 2);
        env::Primitive prim;
        prim.op = static_cast<env::PrimOp>(rng.uniformInt(0, 12));
        prim.target = rng.bernoulli(0.8)
                          ? rng.uniformInt(0, n_objects - 1)
                          : env::kNoObject;
        const auto &body = environment->world().agent(agent);
        prim.dest = {body.pos.x + rng.uniformInt(-1, 1),
                     body.pos.y + rng.uniformInt(-1, 1)};
        prim.param = rng.uniformInt(0, 8);
        (void)environment->applyPrimitive(agent, prim); // may fail freely
    }
    checkWorldInvariants(*environment);
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, PrimitiveFuzz,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(1, 4)));

/** Fuzz the subgoal compiler: arbitrary subgoals must either compile into
 * executable primitives or fail with a reason — never crash. */
class CompilerFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(CompilerFuzz, ArbitrarySubgoalsCompileOrExplain)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 5);
    auto environment = makeByIndex(GetParam() % 8, Difficulty::Medium, 2,
                                   rng.fork(1));
    const int n_objects =
        static_cast<int>(environment->world().objects().size());

    for (int i = 0; i < 300; ++i) {
        env::Subgoal sg;
        sg.kind = static_cast<env::SubgoalKind>(rng.uniformInt(0, 12));
        sg.target = rng.bernoulli(0.7) ? rng.uniformInt(0, n_objects - 1)
                                       : env::kNoObject;
        sg.dest_obj = rng.bernoulli(0.5) ? rng.uniformInt(0, n_objects - 1)
                                         : env::kNoObject;
        sg.dest = {rng.uniformInt(-1, environment->world().grid().width()),
                   rng.uniformInt(-1, environment->world().grid().height())};
        sg.param = rng.uniformInt(0, 9);

        const auto compiled =
            plan::compileSubgoal(*environment, 0, sg);
        if (!compiled.feasible) {
            EXPECT_FALSE(compiled.reason.empty()) << sg.describe();
        } else {
            // Feasible plans are executable without tripping asserts
            // (individual primitives may still be rejected).
            for (const auto &prim : compiled.prims)
                (void)environment->applyPrimitive(0, prim);
            checkWorldInvariants(*environment);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz, ::testing::Range(0, 16));

/** Episode-level fuzz: extreme agent configurations must run to completion
 * with coherent accounting. */
class ConfigFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ConfigFuzz, ExtremeConfigsProduceCoherentEpisodes)
{
    const int seed = GetParam();
    sim::Rng rng(static_cast<std::uint64_t>(seed) * 131 + 3);

    core::AgentConfig config;
    config.has_sensing = rng.bernoulli(0.8);
    config.has_communication = rng.bernoulli(0.5);
    config.has_memory = rng.bernoulli(0.8);
    config.has_reflection = rng.bernoulli(0.7);
    config.has_execution = rng.bernoulli(0.9);
    config.planner_model.plan_quality = rng.uniform();
    config.planner_model.format_compliance = rng.uniform(0.5, 1.0);
    config.memory.capacity_steps = rng.uniformInt(0, 60);
    config.actuation_failure = rng.uniform(0.0, 0.3);
    config.hallucination_rate = rng.uniform();
    config.message_utility = rng.uniform();

    auto environment = makeByIndex(seed % 8, Difficulty::Easy, 2,
                                   rng.fork(1));
    core::EpisodeOptions options;
    options.seed = static_cast<std::uint64_t>(seed);
    options.max_steps_override = 30;
    const auto result =
        core::runDecentralized(*environment, config, options);

    EXPECT_GT(result.steps, 0);
    EXPECT_LE(result.steps, 30);
    EXPECT_GE(result.sim_seconds, 0.0);
    EXPECT_GE(result.final_progress, 0.0);
    EXPECT_LE(result.final_progress, 1.0 + 1e-9);
    EXPECT_GE(result.messages_useful, 0);
    EXPECT_LE(result.messages_useful, result.messages_generated);
    // Sequential pipeline: wall-clock equals total module work.
    EXPECT_NEAR(result.sim_seconds, result.latency.grandTotal(), 1e-6);
    checkWorldInvariants(*environment);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz, ::testing::Range(0, 24));

/**
 * Speculative-execute fuzz: for every environment and several seeds, the
 * speculative execute phase must reproduce the serial schedule bit for
 * bit, with conflict/commit tallies that add up (they are decided by
 * read/write-set intersection in commit order). An episode runs on one
 * thread whatever the worker count, so neither can depend on it.
 * Overlap patterns vary with the environment and seed: transport-style
 * domains produce mostly-disjoint footprints, kitchen/boxlift funnel
 * every agent onto shared stations and boxes (high conflict /
 * forced-serial domain ops), and one seed per environment drops the
 * execution module entirely, forcing the llm-direct serial lane for the
 * whole team.
 */
class SpeculativeFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SpeculativeFuzz, MatchesSerialBitwiseAtAnyWorkerCount)
{
    const auto [env_index, seed_index] = GetParam();
    const std::uint64_t seed =
        1000ULL + 7919ULL * static_cast<std::uint64_t>(seed_index) +
        static_cast<std::uint64_t>(env_index);

    core::AgentConfig config;
    config.planner_model.plan_quality = 0.65;
    config.planner_model.format_compliance = 0.9;
    config.actuation_failure = 0.08;
    config.hallucination_rate = 0.2;
    // One seed per environment exercises the llm-direct serial lane.
    config.has_execution = seed_index != 2;

    const int n_agents = 4;
    auto make_env = [&, env_idx = env_index] {
        return makeByIndex(env_idx, Difficulty::Medium, n_agents,
                           sim::Rng(seed).fork(1));
    };

    core::EpisodeOptions options;
    options.seed = seed;
    options.max_steps_override = 12;
    options.record_tokens = true;

    auto env_serial = make_env();
    const auto serial =
        core::runDecentralized(*env_serial, config, options);
    EXPECT_EQ(serial.spec_exec.turns, 0); // off by default

    auto env_spec = make_env();
    options.pipeline.speculative_execute = true;
    const auto spec = core::runDecentralized(*env_spec, config, options);
    test::expectEpisodeIdentical(serial, spec);
    checkWorldInvariants(*env_spec);

    const auto &tally = spec.spec_exec;
    if (env_index == 7) {
        // ManipulationEnv opts out of speculation (shared RRT stream);
        // the phase must fall back to the plain serial execute phase.
        EXPECT_EQ(tally.turns, 0);
    } else {
        EXPECT_EQ(tally.turns,
                  static_cast<long long>(serial.steps) * n_agents);
        EXPECT_EQ(tally.speculated,
                  tally.committed + tally.conflicts + tally.aborted);
        EXPECT_GE(tally.exec_total_s, tally.exec_critical_s - 1e-12);
        if (!config.has_execution) {
            EXPECT_EQ(tally.speculated, 0); // whole team llm-direct
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, SpeculativeFuzz,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 3)));

/** Speculation must also compose with the parallel_agents clock model
 * (the two ablations are independent switches). */
TEST(SpeculativeFuzz, ComposesWithParallelAgentsClockModel)
{
    core::AgentConfig config;
    config.planner_model.plan_quality = 0.8;

    core::EpisodeOptions base;
    base.seed = 4242;
    base.max_steps_override = 12;
    base.pipeline.parallel_agents = true;

    auto env_serial = makeByIndex(0, Difficulty::Medium, 4,
                                  sim::Rng(base.seed).fork(1));
    const auto serial =
        core::runDecentralized(*env_serial, config, base);

    auto env_spec = makeByIndex(0, Difficulty::Medium, 4,
                                sim::Rng(base.seed).fork(1));
    core::EpisodeOptions options = base;
    options.pipeline.speculative_execute = true;
    const auto spec = core::runDecentralized(*env_spec, config, options);
    test::expectEpisodeIdentical(serial, spec);
    EXPECT_GT(spec.spec_exec.committed, 0);
}

} // namespace
} // namespace ebs
