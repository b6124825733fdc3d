#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
            EXPECT_STRNE(compiled.reason, "") << sg.describe();
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
 * read/write-set intersection in agent order) and match kPinnedTallies.
 * Overlap patterns vary with the environment and seed: transport-style
 * domains produce mostly-disjoint footprints, kitchen/boxlift funnel
 * every agent onto shared stations and boxes (high conflict / aborting
 * domain ops), and one seed per environment drops the execution module
 * entirely, so no turn of the team is eligible to speculate.
 */
class SpeculativeFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

/**
 * Tallies of every SpeculativeFuzz case as the snapshot-and-commit
 * protocol produced them (each turn run against a private copy of the
 * phase-start world, then committed or rolled back and re-run). The
 * single-run analysis must reproduce them exactly; only the split of
 * non-committed turns into conflicts vs aborts may differ, so the table
 * pins their sum. The seconds fields are IEEE-754 bit patterns.
 */
struct PinnedTally
{
    int env_index;
    int seed_index;
    long long turns;
    long long speculated;
    long long committed;
    long long not_committed; ///< conflicts + aborted
    std::uint64_t exec_total_bits;
    std::uint64_t exec_critical_bits;
};

constexpr PinnedTally kPinnedTallies[] = {
    {0, 0, 48, 48, 29, 19, 0x405a475006796586ULL, 0x4054d39abc8bf6e5ULL},
    {0, 1, 48, 48, 29, 19, 0x4055a59ea4d9b1feULL, 0x40525c31d63d2393ULL},
    {0, 2, 48, 0, 0, 0, 0x406653c39cb0c1c3ULL, 0x406653c39cb0c1c3ULL},
    {1, 0, 48, 48, 39, 9, 0x4046d9ea82b01ed0ULL, 0x403d31c789474f99ULL},
    {1, 1, 48, 48, 30, 18, 0x4044796fadcf2962ULL, 0x40406203b52ea8adULL},
    {1, 2, 48, 0, 0, 0, 0x4068bfd31a39acd9ULL, 0x4068bfd31a39acd9ULL},
    {2, 0, 48, 48, 30, 18, 0x4056fa4b965d5702ULL, 0x40523987db5b1c80ULL},
    {2, 1, 48, 48, 34, 14, 0x4055b501695aff4fULL, 0x404fe92f9917e452ULL},
    {2, 2, 48, 0, 0, 0, 0x4063ab043fded4ecULL, 0x4063ab043fded4ecULL},
    {3, 0, 48, 48, 6, 42, 0x40621eb3b498dc01ULL, 0x4061647a895df71cULL},
    {3, 1, 48, 48, 15, 33, 0x405d6a69c95e9984ULL, 0x405b8137d7340318ULL},
    {3, 2, 48, 0, 0, 0, 0x406b134f22ed2b42ULL, 0x406b134f22ed2b42ULL},
    {4, 0, 36, 36, 25, 11, 0x40489d99d6ead72aULL, 0x404289f103fbc48fULL},
    {4, 1, 48, 48, 32, 16, 0x40506dcb326c1be2ULL, 0x40499813cdaba127ULL},
    {4, 2, 48, 0, 0, 0, 0x4067fa44ef8d7188ULL, 0x4067fa44ef8d7188ULL},
    {5, 0, 40, 40, 23, 17, 0x404b0407237f3c20ULL, 0x4047acfdf17d795dULL},
    {5, 1, 32, 32, 21, 11, 0x404561f45e5bbfd8ULL, 0x40430ed9d73c8786ULL},
    {5, 2, 48, 0, 0, 0, 0x4066400c446e4b0cULL, 0x4066400c446e4b0cULL},
    {6, 0, 20, 20, 4, 16, 0x403b30754969c08eULL, 0x403b263d64b1fed6ULL},
    {6, 1, 20, 20, 2, 18, 0x4039ec5a0df009b3ULL, 0x4039caeee94d1407ULL},
    {6, 2, 48, 0, 0, 0, 0x406e7f3d8afc7c9cULL, 0x406e7f3d8afc7c9cULL},
    {7, 0, 0, 0, 0, 0, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {7, 1, 0, 0, 0, 0, 0x0000000000000000ULL, 0x0000000000000000ULL},
    {7, 2, 0, 0, 0, 0, 0x0000000000000000ULL, 0x0000000000000000ULL},
};

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

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
    // One seed per environment exercises llm-direct (ineligible) turns.
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
    test::expectSameSimulation(serial, spec);
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

    const PinnedTally &pinned =
        kPinnedTallies[static_cast<std::size_t>(env_index * 3 + seed_index)];
    ASSERT_EQ(pinned.env_index, env_index);
    ASSERT_EQ(pinned.seed_index, seed_index);
    EXPECT_EQ(tally.turns, pinned.turns);
    EXPECT_EQ(tally.speculated, pinned.speculated);
    EXPECT_EQ(tally.committed, pinned.committed);
    EXPECT_EQ(tally.conflicts + tally.aborted, pinned.not_committed);
    EXPECT_EQ(bitsOf(tally.exec_total_s), pinned.exec_total_bits);
    EXPECT_EQ(bitsOf(tally.exec_critical_s), pinned.exec_critical_bits);
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
    test::expectSameSimulation(serial, spec);
    EXPECT_GT(spec.spec_exec.committed, 0);
}

} // namespace
} // namespace ebs
