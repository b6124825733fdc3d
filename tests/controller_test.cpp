#include <gtest/gtest.h>

#include "envs/transport_env.h"
#include "plan/controller.h"

namespace ebs::plan {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : env_(env::Difficulty::Easy, /*n_agents=*/1, sim::Rng(3))
    {
    }

    /** First loose goal item in the world. */
    env::ObjectId
    looseGoalItem() const
    {
        for (const auto &obj : env_.world().objects())
            if (obj.kind == envs::TransportEnv::kGoalItem && obj.loose())
                return obj.id;
        return env::kNoObject;
    }

    envs::TransportEnv env_;
};

TEST_F(ControllerTest, WaitCompilesToSinglePrimitive)
{
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::Wait;
    const auto compiled = compileSubgoal(env_, 0, sg);
    ASSERT_TRUE(compiled.feasible);
    ASSERT_EQ(compiled.prims.size(), 1u);
    EXPECT_EQ(compiled.prims[0].op, env::PrimOp::Wait);
}

TEST_F(ControllerTest, PickUpEndsWithPick)
{
    const env::ObjectId item = looseGoalItem();
    ASSERT_NE(item, env::kNoObject);
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::PickUp;
    sg.target = item;
    const auto compiled = compileSubgoal(env_, 0, sg);
    ASSERT_TRUE(compiled.feasible);
    ASSERT_FALSE(compiled.prims.empty());
    EXPECT_EQ(compiled.prims.back().op, env::PrimOp::Pick);
    for (std::size_t i = 0; i + 1 < compiled.prims.size(); ++i)
        EXPECT_EQ(compiled.prims[i].op, env::PrimOp::MoveStep);
}

TEST_F(ControllerTest, CompiledPlanExecutes)
{
    const env::ObjectId item = looseGoalItem();
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::PickUp;
    sg.target = item;
    const auto compiled = compileSubgoal(env_, 0, sg);
    ASSERT_TRUE(compiled.feasible);
    for (const auto &prim : compiled.prims)
        ASSERT_TRUE(env_.applyPrimitive(0, prim).ok) << prim.describe();
    EXPECT_EQ(env_.world().agent(0).carrying, item);
}

TEST_F(ControllerTest, PutIntoOpensClosedContainers)
{
    // Grab an item first.
    const env::ObjectId item = looseGoalItem();
    env::Subgoal pick;
    pick.kind = env::SubgoalKind::PickUp;
    pick.target = item;
    for (const auto &prim : compileSubgoal(env_, 0, pick).prims)
        ASSERT_TRUE(env_.applyPrimitive(0, prim).ok);

    // Find a closed container and compile PutInto it.
    env::ObjectId closed = env::kNoObject;
    for (const auto &obj : env_.world().objects())
        if (obj.cls == env::ObjectClass::Container && obj.openable &&
            !obj.open)
            closed = obj.id;
    ASSERT_NE(closed, env::kNoObject);

    env::Subgoal put;
    put.kind = env::SubgoalKind::PutInto;
    put.target = item;
    put.dest_obj = closed;
    const auto compiled = compileSubgoal(env_, 0, put);
    ASSERT_TRUE(compiled.feasible);
    bool has_open = false;
    for (const auto &prim : compiled.prims)
        has_open |= prim.op == env::PrimOp::Open;
    EXPECT_TRUE(has_open);
    EXPECT_EQ(compiled.prims.back().op, env::PrimOp::PutIn);
}

TEST_F(ControllerTest, GoToCellNavigates)
{
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::GoTo;
    sg.dest = env_.roomAnchor(1);
    const auto compiled = compileSubgoal(env_, 0, sg);
    ASSERT_TRUE(compiled.feasible);
    for (const auto &prim : compiled.prims)
        ASSERT_TRUE(env_.applyPrimitive(0, prim).ok);
    EXPECT_LE(env::chebyshev(env_.world().agent(0).pos, sg.dest), 1);
}

TEST_F(ControllerTest, MissingTargetIsInfeasible)
{
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::PickUp; // no target set
    const auto compiled = compileSubgoal(env_, 0, sg);
    EXPECT_FALSE(compiled.feasible);
    EXPECT_FALSE(compiled.reason.empty());
}

TEST_F(ControllerTest, PlaceWithoutDestIsInfeasible)
{
    env::Subgoal sg;
    sg.kind = env::SubgoalKind::PlaceAt;
    const auto compiled = compileSubgoal(env_, 0, sg);
    EXPECT_FALSE(compiled.feasible);
}

} // namespace
} // namespace ebs::plan
