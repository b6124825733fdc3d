#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "envs/boxlift_env.h"
#include "envs/kitchen_env.h"
#include "envs/transport_env.h"
#include "workloads/workload.h"

namespace ebs {
namespace {

// Regression tests for bugs found by the fuzzers and during calibration.

TEST(Regression, LiftRejectsNonCrateTargets)
{
    // Fuzz finding: Lift(truck) used to put the truck inside itself.
    sim::Rng rng(3);
    envs::BoxLiftEnv env(env::Difficulty::Easy, 2, rng);
    const env::ObjectId truck = env.truck();
    env.world().agent(0).pos = env.world().object(truck).pos;
    env.beginStep();
    env::Primitive lift;
    lift.op = env::PrimOp::Lift;
    lift.target = truck;
    const auto result = env.applyPrimitive(0, lift);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(env.world().object(truck).inside, env::kNoObject);
}

TEST(Regression, ChopRejectsStations)
{
    // Fuzz finding: Chop(cutting board) used to "chop" the station itself.
    sim::Rng rng(5);
    envs::KitchenEnv env(env::Difficulty::Easy, 1, rng);
    env.world().agent(0).pos = env.world().object(env.board()).pos;
    env::Primitive chop;
    chop.op = env::PrimOp::Chop;
    chop.target = env.board();
    EXPECT_FALSE(env.applyPrimitive(0, chop).ok);
    EXPECT_EQ(env.world().object(env.board()).state, 0);
}

TEST(Regression, RoomAnchorIsInteriorCell)
{
    // Calibration finding: anchors on doorway cells caused agents to stop
    // adjacent in the *neighboring* room and explore-loop forever.
    sim::Rng rng(7);
    envs::TransportEnv env(env::Difficulty::Hard, 1, rng);
    const auto &grid = env.world().grid();
    for (int room = 0; room < grid.roomCount(); ++room) {
        const env::Vec2i anchor = env.roomAnchor(room);
        ASSERT_GE(anchor.x, 0) << "room " << room << " has no anchor";
        EXPECT_EQ(grid.room(anchor), room);
        // All walkable neighbors belong to the same room (interior cell).
        static const env::Vec2i kDirs[4] = {{1, 0}, {-1, 0}, {0, 1},
                                            {0, -1}};
        for (const auto &d : kDirs) {
            const int neighbor_room = grid.room(anchor + d);
            if (neighbor_room >= 0) {
                EXPECT_EQ(neighbor_room, room);
            }
        }
    }
}

TEST(Regression, StaleBeliefIsInvalidatedAfterFailedVisit)
{
    // Calibration finding: agents kept returning to a stale remembered
    // location forever; the failed visit must drop the belief.
    sim::Rng rng(9);
    envs::TransportEnv env(env::Difficulty::Easy, 1, rng);
    stats::LatencyRecorder recorder;
    core::AgentConfig config;
    llm::LlmEngineService service;
    llm::EngineSession session = service.openSession();
    core::Agent agent(0, config, &env, sim::Rng(10), &recorder, session);

    // Deterministic fixture: stand the agent in a room guaranteed to
    // contain a loose item (the spawn room may be empty), sense it, then
    // teleport the item far away so only the stale memory remains.
    env::ObjectId item = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item && obj.loose())
            item = obj.id;
    ASSERT_NE(item, env::kNoObject) << "layout generated no loose item";
    env.world().agent(0).pos = env.roomAnchor(
        env.world().grid().room(env.world().object(item).pos));
    agent.sense(0);
    ASSERT_TRUE(agent.memory().knowsObject(item));

    const env::Vec2i far = env.roomAnchor(
        (env.world().grid().room(env.world().object(item).pos) + 1) %
        env.world().grid().roomCount());
    env.world().object(item).pos = far;
    env.world().object(item).room = env.world().grid().room(far);

    // Move the agent's percept away so only the stale memory remains.
    env.world().agent(0).pos = env.roomAnchor(
        (env.world().grid().room(far) + 1) %
        env.world().grid().roomCount());
    agent.sense(1);

    env::Subgoal pick;
    pick.kind = env::SubgoalKind::PickUp;
    pick.target = item;
    EXPECT_FALSE(agent.execute(1, pick));
    EXPECT_FALSE(agent.memory().knowsObject(item))
        << "stale belief should be dropped after the failed visit";
}

TEST(Regression, StepBudgetFactorCapsEpisodes)
{
    // The workload-level L_max must bind even when the environment's
    // generic budget is generous.
    const auto &spec = workloads::workload("RoCo"); // factor 0.25
    core::AgentConfig broken = spec.config;
    broken.planner_model.plan_quality = 0.0; // wander forever
    broken.hallucination_rate = 0.0;
    core::EpisodeOptions options;
    options.seed = 11;
    const auto r = spec.runWithConfig(broken, env::Difficulty::Medium,
                                      options);
    EXPECT_FALSE(r.success);
    // The generic manipulation budget is 110 at medium; RoCo gets 25%.
    EXPECT_LE(r.steps, 30);
}

TEST(Regression, CentralTokenSeriesUsesSentinelAgent)
{
    const auto &spec = workloads::workload("MindAgent");
    core::EpisodeOptions options;
    options.seed = 13;
    options.record_tokens = true;
    options.max_steps_override = 5;
    const auto r = spec.run(env::Difficulty::Easy, options);
    bool saw_central = false;
    for (const auto &sample : r.token_series)
        saw_central |= sample.agent == -1 && sample.plan_tokens > 0;
    EXPECT_TRUE(saw_central);
}

TEST(Regression, MessageUtilityModelKeepsUsefulBelowGenerated)
{
    const auto &spec = workloads::workload("DMAS");
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        core::EpisodeOptions options;
        options.seed = seed;
        options.max_steps_override = 10;
        const auto r = spec.run(env::Difficulty::Easy, options);
        EXPECT_LE(r.messages_useful, r.messages_generated);
        EXPECT_GT(r.messages_generated, 0);
    }
}

} // namespace
} // namespace ebs
