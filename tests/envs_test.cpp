#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "astar_reference.h"
#include "env/spec.h"
#include "envs/boxlift_env.h"
#include "envs/boxnet_env.h"
#include "envs/craft_env.h"
#include "envs/household_env.h"
#include "envs/kitchen_env.h"
#include "envs/manipulation_env.h"
#include "envs/transport_env.h"
#include "envs/warehouse_env.h"
#include "test_util.h"

namespace ebs::envs {
namespace {

using env::Difficulty;

// ---------------------------------------------------------------- transport

TEST(TransportEnv, ConstructionAndTask)
{
    sim::Rng rng(1);
    TransportEnv env(Difficulty::Medium, 2, rng);
    EXPECT_EQ(env.goalCount(), 8);
    EXPECT_EQ(env.world().agentCount(), 2);
    EXPECT_FALSE(env.task().satisfied(env.world()));
    EXPECT_DOUBLE_EQ(env.task().progress(env.world()), 0.0);
}

TEST(TransportEnv, OracleOffersPickupsWhenEmptyHanded)
{
    sim::Rng rng(2);
    TransportEnv env(Difficulty::Easy, 1, rng);
    const auto useful = env.usefulSubgoals(0);
    ASSERT_FALSE(useful.empty());
    for (const auto &sg : useful)
        EXPECT_TRUE(sg.kind == env::SubgoalKind::PickUp ||
                    sg.kind == env::SubgoalKind::TakeFrom);
}

TEST(TransportEnv, OracleDeliversWhenCarrying)
{
    sim::Rng rng(3);
    TransportEnv env(Difficulty::Easy, 1, rng);
    // Teleport-grab: directly mutate the world for the test.
    env::ObjectId item = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.kind == TransportEnv::kGoalItem && obj.loose())
            item = obj.id;
    ASSERT_NE(item, env::kNoObject);
    env.world().agent(0).pos = env.world().object(item).pos;
    env::Primitive pick;
    pick.op = env::PrimOp::Pick;
    pick.target = item;
    ASSERT_TRUE(env.applyPrimitive(0, pick).ok);

    const auto useful = env.usefulSubgoals(0);
    ASSERT_EQ(useful.size(), 1u);
    EXPECT_EQ(useful[0].kind, env::SubgoalKind::PutInto);
    EXPECT_EQ(useful[0].dest_obj, env.goalZone());
}

TEST(TransportEnv, ValidIncludesExploreAndWait)
{
    sim::Rng rng(4);
    TransportEnv env(Difficulty::Easy, 1, rng);
    bool has_explore = false, has_wait = false;
    for (const auto &sg : env.validSubgoals(0)) {
        has_explore |= sg.kind == env::SubgoalKind::Explore;
        has_wait |= sg.kind == env::SubgoalKind::Wait;
    }
    EXPECT_TRUE(has_explore);
    EXPECT_TRUE(has_wait);
}

TEST(TransportEnv, ObservationIsRoomLocal)
{
    sim::Rng rng(5);
    TransportEnv env(Difficulty::Medium, 1, rng);
    const auto obs = env.observe(0, 0);
    for (const auto &seen : obs.objects)
        EXPECT_EQ(env.world().grid().room(seen.pos), obs.room);
}

TEST(TransportEnv, HardLayoutGeneratesHiddenItems)
{
    // Generator coverage: Hard guarantees hidden goal items that start
    // inside containers, and containers start closed.
    sim::Rng rng(6);
    TransportEnv env(Difficulty::Hard, 1, rng);
    int hidden = 0;
    for (const auto &obj : env.world().objects()) {
        if (obj.kind != TransportEnv::kGoalItem ||
            obj.inside == env::kNoObject)
            continue;
        const auto &host = env.world().object(obj.inside);
        EXPECT_TRUE(host.openable);
        EXPECT_FALSE(host.open) << "containers must start closed";
        ++hidden;
    }
    EXPECT_GE(hidden, 1) << "Hard layout generated no hidden goal item";
}

TEST(TransportEnv, ClosedContainerContentsHidden)
{
    sim::Rng rng(6);
    TransportEnv env(Difficulty::Hard, 1, rng);
    // Deterministic fixture: hide a goal item inside a closed container
    // ourselves instead of relying on the random layout to produce one.
    env::ObjectId container = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Container && obj.openable)
            container = obj.id;
    ASSERT_NE(container, env::kNoObject) << "layout has no container";
    env::ObjectId item = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.kind == TransportEnv::kGoalItem && obj.loose())
            item = obj.id;
    ASSERT_NE(item, env::kNoObject) << "layout has no loose goal item";

    auto &box = env.world().object(container);
    box.open = false;
    auto &hidden = env.world().object(item);
    hidden.inside = container;
    hidden.pos = box.pos;
    hidden.room = box.room;

    // Stand next to the container: the hidden item must not be observed.
    env.world().agent(0).pos = box.pos;
    const auto obs = env.observe(0, 0);
    for (const auto &seen : obs.objects)
        EXPECT_NE(seen.id, item);

    // Positive control: opening the container is the one thing that must
    // reveal the item, pinning the hiding reason to the closed state.
    box.open = true;
    const auto obs_open = env.observe(0, 0);
    bool visible = false;
    for (const auto &seen : obs_open.objects)
        visible |= seen.id == item;
    EXPECT_TRUE(visible) << "item stayed hidden after opening its container";
}

// ------------------------------------------------------------------ kitchen

TEST(KitchenEnv, StateMachineChopCookServe)
{
    sim::Rng rng(7);
    KitchenEnv env(Difficulty::Easy, 1, rng);
    env::ObjectId ing = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item && obj.loose())
            ing = obj.id;
    ASSERT_NE(ing, env::kNoObject);

    // Grab the ingredient.
    env.world().agent(0).pos = env.world().object(ing).pos;
    env::Primitive pick;
    pick.op = env::PrimOp::Pick;
    pick.target = ing;
    ASSERT_TRUE(env.applyPrimitive(0, pick).ok);

    // Chop at the board.
    env.world().agent(0).pos = env.world().object(env.board()).pos;
    env::Primitive chop;
    chop.op = env::PrimOp::Chop;
    chop.target = ing;
    ASSERT_TRUE(env.applyPrimitive(0, chop).ok);
    EXPECT_EQ(env.world().object(ing).state, KitchenEnv::kChopped);

    // Cooking before chopping is rejected; chopping twice is rejected.
    EXPECT_FALSE(env.applyPrimitive(0, chop).ok);

    // Cook at the stove.
    env.world().agent(0).pos = env.world().object(env.stove()).pos;
    env::Primitive cook;
    cook.op = env::PrimOp::Cook;
    cook.target = ing;
    ASSERT_TRUE(env.applyPrimitive(0, cook).ok);
    EXPECT_EQ(env.world().object(ing).state, KitchenEnv::kCooked);

    // Serve at the counter.
    env.world().agent(0).pos = env.world().object(env.counter()).pos;
    env::Primitive serve;
    serve.op = env::PrimOp::PutIn;
    serve.target = env.counter();
    ASSERT_TRUE(env.applyPrimitive(0, serve).ok);
    EXPECT_EQ(env.servedCount(), 1);
    EXPECT_GT(env.task().progress(env.world()), 0.0);
}

TEST(KitchenEnv, ChopRequiresBoardProximity)
{
    sim::Rng rng(8);
    KitchenEnv env(Difficulty::Easy, 1, rng);
    env::ObjectId ing = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item && obj.loose())
            ing = obj.id;
    env.world().agent(0).pos = env.world().object(ing).pos;
    env::Primitive pick;
    pick.op = env::PrimOp::Pick;
    pick.target = ing;
    ASSERT_TRUE(env.applyPrimitive(0, pick).ok);

    // Stand far from the board.
    env.world().agent(0).pos = env.roomAnchor(1);
    env::Primitive chop;
    chop.op = env::PrimOp::Chop;
    chop.target = ing;
    EXPECT_FALSE(env.applyPrimitive(0, chop).ok);
}

TEST(KitchenEnv, MisservedIngredientIsRecoverable)
{
    sim::Rng rng(9);
    KitchenEnv env(Difficulty::Easy, 1, rng);
    env::ObjectId ing = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item && obj.loose())
            ing = obj.id;
    env.world().agent(0).pos = env.world().object(ing).pos;
    env::Primitive pick;
    pick.op = env::PrimOp::Pick;
    pick.target = ing;
    ASSERT_TRUE(env.applyPrimitive(0, pick).ok);
    env.world().agent(0).pos = env.world().object(env.counter()).pos;
    env::Primitive serve;
    serve.op = env::PrimOp::PutIn;
    serve.target = env.counter();
    ASSERT_TRUE(env.applyPrimitive(0, serve).ok);
    EXPECT_EQ(env.servedCount(), 0); // raw: does not count

    // The oracle offers to take it back out.
    bool offered = false;
    for (const auto &sg : env.usefulSubgoals(0))
        offered |= sg.kind == env::SubgoalKind::TakeFrom && sg.target == ing;
    EXPECT_TRUE(offered);
}

// -------------------------------------------------------------------- craft

TEST(CraftEnv, RecipeBookIsConsistent)
{
    for (const auto &recipe : CraftEnv::recipes()) {
        EXPECT_GT(recipe.id, 0);
        EXPECT_GT(recipe.output_count, 0);
        EXPECT_FALSE(recipe.inputs.empty());
    }
}

TEST(CraftEnv, MineRequiresAdjacencyAndTool)
{
    sim::Rng rng(10);
    CraftEnv env(Difficulty::Hard, 1, rng);
    env::ObjectId diamond = env::kNoObject;
    env::ObjectId tree = env::kNoObject;
    for (const auto &obj : env.world().objects()) {
        if (obj.cls != env::ObjectClass::Resource)
            continue;
        if (obj.kind == CraftEnv::kDiamond)
            diamond = obj.id;
        if (obj.kind == CraftEnv::kWood)
            tree = obj.id;
    }
    ASSERT_NE(diamond, env::kNoObject);
    ASSERT_NE(tree, env::kNoObject);

    // Far away fails.
    env::Primitive mine;
    mine.op = env::PrimOp::Mine;
    mine.target = tree;
    env.world().agent(0).pos = env.roomAnchor(8);
    if (env::chebyshev(env.world().agent(0).pos,
                       env.world().object(tree).pos) > 1) {
        EXPECT_FALSE(env.applyPrimitive(0, mine).ok);
    }

    // Adjacent tree succeeds with bare hands.
    env.world().agent(0).pos = env.world().object(tree).pos;
    EXPECT_TRUE(env.applyPrimitive(0, mine).ok);
    EXPECT_EQ(env.inventory(0, CraftEnv::kWood), 1);

    // Diamond requires an iron pickaxe.
    mine.target = diamond;
    env.world().agent(0).pos = env.world().object(diamond).pos;
    EXPECT_FALSE(env.applyPrimitive(0, mine).ok);
}

TEST(CraftEnv, CraftConsumesInputsAndYieldsOutput)
{
    sim::Rng rng(11);
    CraftEnv env(Difficulty::Easy, 1, rng);
    // Mine a tree until we hold 2 wood.
    env::ObjectId tree = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Resource &&
            obj.kind == CraftEnv::kWood)
            tree = obj.id;
    env.world().agent(0).pos = env.world().object(tree).pos;
    env::Primitive mine;
    mine.op = env::PrimOp::Mine;
    mine.target = tree;
    ASSERT_TRUE(env.applyPrimitive(0, mine).ok);
    ASSERT_TRUE(env.applyPrimitive(0, mine).ok);

    // Craft planks at the table (recipe 1).
    env::ObjectId table = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Station && obj.kind == 0)
            table = obj.id;
    env.world().agent(0).pos = env.world().object(table).pos;
    env::Primitive craft;
    craft.op = env::PrimOp::Craft;
    craft.target = table;
    craft.param = 1;
    ASSERT_TRUE(env.applyPrimitive(0, craft).ok);
    EXPECT_EQ(env.inventory(0, CraftEnv::kWood), 1);
    EXPECT_EQ(env.inventory(0, CraftEnv::kPlank), 2);

    // Missing ingredients fail cleanly.
    craft.param = 7; // diamond pickaxe
    EXPECT_FALSE(env.applyPrimitive(0, craft).ok);
}

TEST(CraftEnv, NodeDepletes)
{
    sim::Rng rng(12);
    CraftEnv env(Difficulty::Easy, 1, rng);
    env::ObjectId tree = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Resource &&
            obj.kind == CraftEnv::kWood)
            tree = obj.id;
    env.world().agent(0).pos = env.world().object(tree).pos;
    env::Primitive mine;
    mine.op = env::PrimOp::Mine;
    mine.target = tree;
    int mined = 0;
    while (env.applyPrimitive(0, mine).ok)
        ++mined;
    EXPECT_EQ(mined, 3); // units per node
    EXPECT_EQ(env.world().object(tree).state, 0);
}

TEST(CraftEnv, OracleReachesGoalThroughTechTree)
{
    sim::Rng rng(13);
    CraftEnv env(Difficulty::Medium, 1, rng);
    const int steps = test::oracleRollout(env, 300);
    EXPECT_GT(steps, 0) << "oracle rollout failed to obtain the pickaxe";
    EXPECT_TRUE(env.achieved().count(CraftEnv::kIronPick) > 0);
}

TEST(CraftEnv, ProgressTracksMilestones)
{
    sim::Rng rng(14);
    CraftEnv env(Difficulty::Easy, 1, rng);
    EXPECT_DOUBLE_EQ(env.task().progress(env.world()), 0.0);
    env::ObjectId tree = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Resource &&
            obj.kind == CraftEnv::kWood)
            tree = obj.id;
    env.world().agent(0).pos = env.world().object(tree).pos;
    env::Primitive mine;
    mine.op = env::PrimOp::Mine;
    mine.target = tree;
    ASSERT_TRUE(env.applyPrimitive(0, mine).ok);
    EXPECT_DOUBLE_EQ(env.task().progress(env.world()), 0.25);
}

// ------------------------------------------------------------------ boxlift

TEST(BoxLiftEnv, JointLiftRequiresEnoughAgents)
{
    sim::Rng rng(15);
    BoxLiftEnv env(Difficulty::Easy, 3, rng); // crates weigh 2
    env::ObjectId crate = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item)
            crate = obj.id;
    ASSERT_NE(crate, env::kNoObject);

    const env::Vec2i pos = env.world().object(crate).pos;
    env.world().agent(0).pos = {pos.x + 1, pos.y};
    env.world().agent(1).pos = {pos.x - 1, pos.y};

    env.beginStep();
    env::Primitive lift;
    lift.op = env::PrimOp::Lift;
    lift.target = crate;
    ASSERT_TRUE(env.applyPrimitive(0, lift).ok);
    // One lifter is not enough.
    EXPECT_NE(env.world().object(crate).inside, env.truck());
    EXPECT_EQ(env.votesOn(crate), 1);
    ASSERT_TRUE(env.applyPrimitive(1, lift).ok);
    // The second lifter completes the lift.
    EXPECT_EQ(env.world().object(crate).inside, env.truck());
}

TEST(BoxLiftEnv, LoggedLiftIsFlaggedAbortedAndStillApplies)
{
    // Lift votes live outside the world, where no access key names them,
    // so a lift under a speculation access log flags the turn aborted.
    // The op must still change the live world exactly as it does with no
    // log attached.
    struct Outcome
    {
        bool first_ok, second_ok;
        bool on_truck;
        env::Object crate;
    };
    const auto lift_twice = [](env::spec::AccessLog *log) {
        sim::Rng rng(15);
        BoxLiftEnv env(Difficulty::Easy, 3, rng); // crates weigh 2
        env::ObjectId crate = env::kNoObject;
        for (const auto &obj : env.world().objects())
            if (obj.cls == env::ObjectClass::Item)
                crate = obj.id;
        const env::Vec2i pos = env.world().object(crate).pos;
        env.world().agent(0).pos = {pos.x + 1, pos.y};
        env.world().agent(1).pos = {pos.x - 1, pos.y};
        env.beginStep();
        env::Primitive lift;
        lift.op = env::PrimOp::Lift;
        lift.target = crate;
        env.world().setAccessLog(log);
        Outcome out{};
        out.first_ok = env.applyPrimitive(0, lift).ok;
        out.second_ok = env.applyPrimitive(1, lift).ok;
        env.world().setAccessLog(nullptr);
        out.on_truck = env.world().object(crate).inside == env.truck();
        out.crate = env.world().object(crate);
        return out;
    };

    const Outcome plain = lift_twice(nullptr);
    env::spec::AccessLog log;
    const Outcome logged = lift_twice(&log);
    EXPECT_TRUE(log.aborted());
    ASSERT_TRUE(plain.first_ok && plain.second_ok);
    EXPECT_TRUE(plain.on_truck);
    EXPECT_EQ(logged.first_ok, plain.first_ok);
    EXPECT_EQ(logged.second_ok, plain.second_ok);
    EXPECT_EQ(logged.on_truck, plain.on_truck);
    EXPECT_EQ(logged.crate.inside, plain.crate.inside);
    EXPECT_EQ(logged.crate.pos, plain.crate.pos);
    EXPECT_EQ(logged.crate.room, plain.crate.room);
}

TEST(BoxLiftEnv, VotesClearEachStep)
{
    sim::Rng rng(16);
    BoxLiftEnv env(Difficulty::Easy, 2, rng);
    env::ObjectId crate = env::kNoObject;
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item)
            crate = obj.id;
    const env::Vec2i pos = env.world().object(crate).pos;
    env.world().agent(0).pos = {pos.x + 1, pos.y};

    env.beginStep();
    env::Primitive lift;
    lift.op = env::PrimOp::Lift;
    lift.target = crate;
    ASSERT_TRUE(env.applyPrimitive(0, lift).ok);
    EXPECT_EQ(env.votesOn(crate), 1);
    env.beginStep(); // next step: the uncompleted vote evaporates
    EXPECT_EQ(env.votesOn(crate), 0);
}

TEST(BoxLiftEnv, WeightsClampedToTeamSize)
{
    sim::Rng rng(17);
    BoxLiftEnv env(Difficulty::Hard, 2, rng); // hard has weight-3 crates
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Item) {
            EXPECT_LE(obj.weight, 2.0);
        }
}

TEST(BoxLiftEnv, OracleConvergesAllAgentsOnOneCrate)
{
    sim::Rng rng(18);
    BoxLiftEnv env(Difficulty::Medium, 3, rng);
    const auto a0 = env.usefulSubgoals(0);
    const auto a1 = env.usefulSubgoals(1);
    ASSERT_EQ(a0.size(), 1u);
    ASSERT_EQ(a1.size(), 1u);
    EXPECT_EQ(a0[0].target, a1[0].target);
    EXPECT_EQ(a0[0].kind, env::SubgoalKind::LiftWith);
}

// -------------------------------------------------------------------- boxnet

TEST(BoxNetEnv, EveryBoxHasDistinctTargetZone)
{
    sim::Rng rng(19);
    BoxNetEnv env(Difficulty::Medium, 2, rng);
    EXPECT_EQ(env.boxCount(), 6);
    for (const auto &obj : env.world().objects()) {
        if (obj.cls != env::ObjectClass::Item)
            continue;
        const env::ObjectId target = env.targetOf(obj.id);
        ASSERT_NE(target, env::kNoObject);
        // Box starts outside its target zone.
        EXPECT_NE(env.world().object(target).room, obj.room);
    }
}

TEST(BoxNetEnv, TargetOfNonBoxIsNone)
{
    sim::Rng rng(20);
    BoxNetEnv env(Difficulty::Easy, 1, rng);
    // Target zones themselves have no target assignment.
    for (const auto &obj : env.world().objects())
        if (obj.cls == env::ObjectClass::Target) {
            EXPECT_EQ(env.targetOf(obj.id), env::kNoObject);
        }
}

// ----------------------------------------------------------------- warehouse

TEST(WarehouseEnv, FloorHasShelvesAndIsConnected)
{
    sim::Rng rng(21);
    WarehouseEnv env(Difficulty::Medium, 2, rng);
    int walls = 0;
    const auto &grid = env.world().grid();
    for (int y = 1; y < grid.height() - 1; ++y)
        for (int x = 1; x < grid.width() - 1; ++x)
            walls += !grid.walkable({x, y});
    EXPECT_GT(walls, 0) << "no shelf obstacles generated";
    // Every package is reachable from the depot.
    const env::Vec2i depot_pos = env.world().object(env.depot()).pos;
    for (const auto &obj : env.world().objects()) {
        if (obj.kind != WarehouseEnv::kPackage)
            continue;
        EXPECT_GE(env.motionCost(depot_pos, obj.pos, nullptr), 0.0);
    }
}

// -------------------------------------------------------------- manipulation

TEST(ManipulationEnv, RrtPricesMotion)
{
    sim::Rng rng(22);
    ManipulationEnv env(Difficulty::Medium, 2, rng);
    EXPECT_FALSE(env.workspace().obstacles.empty());
    const long before = env.rrtIterations();
    const double cost =
        env.motionCost(env.world().agent(0).pos,
                       env.world().agent(1).pos, nullptr);
    if (cost > 0.0) {
        EXPECT_GT(env.rrtIterations(), before);
    }
}

TEST(ManipulationEnv, ObstaclesBlockGridCells)
{
    sim::Rng rng(23);
    ManipulationEnv env(Difficulty::Hard, 2, rng);
    const auto &grid = env.world().grid();
    for (const auto &obs : env.workspace().obstacles) {
        const env::Vec2i center{static_cast<int>(obs.center.x),
                                static_cast<int>(obs.center.y)};
        if (grid.inBounds(center)) {
            EXPECT_FALSE(grid.walkable(center));
        }
    }
}

// ------------------------------------------------------------- room anchors

/** A grid edit after construction invalidates the anchor table:
 * roomAnchor then answers from the scan of the edited grid. */
TEST(RoomAnchor, GridEditAfterConstructionFallsBackToScan)
{
    TransportEnv env(Difficulty::Medium, 2, sim::Rng(3));
    const int room = 1;
    const env::Vec2i before = env.roomAnchor(room);
    ASSERT_GE(before.x, 0);
    const auto version = env.world().grid().version();

    env.world().grid().setWalkable(before, false);
    const env::GridMap &grid = env.world().grid();
    EXPECT_GT(grid.version(), version);
    const env::Vec2i after = env.roomAnchor(room);
    EXPECT_EQ(after, env::scanRoomAnchor(grid, room));
    EXPECT_NE(after, before);
    EXPECT_TRUE(grid.walkable(after));
}

// ------------------------------------------------------ access-log stamps

TEST(AccessLog, ScanAfterOwnWriteSeesEarlierTurnsObjectWrite)
{
    // An earlier turn writes object A; the current turn writes object B
    // and then scans the table. The scan saw A's new state, so the turn
    // conflicts even though its own write came last.
    env::spec::AccessLog log;
    log.cover(2, 0, 1, 1);
    log.beginPhase();
    log.beginTurn();
    log.writeObject(0);
    log.beginTurn();
    log.writeObject(1);
    EXPECT_FALSE(log.conflicted());
    log.readAllObjects();
    EXPECT_TRUE(log.conflicted());
}

TEST(AccessLog, OwnWriteDoesNotConflict)
{
    env::spec::AccessLog log;
    log.cover(1, 1, 2, 2);
    log.beginPhase();
    log.beginTurn();
    log.writeObject(0);
    log.writeAgent(0);
    log.writeCell({1, 1});
    log.readObject(0);
    log.readAgent(0);
    log.readCell({1, 1});
    log.readAllObjects();
    EXPECT_FALSE(log.conflicted());
    // A later turn of the same phase conflicts on each of them.
    const auto conflictsAfter = [&log](const auto &read) {
        log.beginTurn();
        read();
        return log.conflicted();
    };
    EXPECT_TRUE(conflictsAfter([&] { log.readObject(0); }));
    EXPECT_TRUE(conflictsAfter([&] { log.readAgent(0); }));
    EXPECT_TRUE(conflictsAfter([&] { log.readCell({1, 1}); }));
    EXPECT_TRUE(conflictsAfter([&] { log.readAllObjects(); }));
    EXPECT_FALSE(conflictsAfter([&] { log.readCell({0, 1}); }));
}

TEST(AccessLog, WriteInPreviousPhaseDoesNotConflict)
{
    env::spec::AccessLog log;
    log.cover(1, 1, 2, 2);
    log.beginPhase();
    log.beginTurn();
    log.writeObject(0);
    log.writeAgent(0);
    log.writeCell({0, 1});
    log.beginPhase();
    log.beginTurn();
    log.readObject(0);
    log.readAgent(0);
    log.readCell({0, 1});
    log.readAllObjects();
    EXPECT_FALSE(log.conflicted());
    // A write of a stale slot restamps it for the new phase.
    log.writeObject(0);
    log.beginTurn();
    log.readObject(0);
    EXPECT_TRUE(log.conflicted());
}

TEST(AccessLog, OffGridCellReadDoesNotConflict)
{
    env::spec::AccessLog log;
    log.cover(0, 0, 3, 2);
    log.beginPhase();
    log.beginTurn();
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 3; ++x)
            log.writeCell({x, y});
    log.beginTurn();
    for (const env::Vec2i cell : {env::Vec2i{-1, 0}, env::Vec2i{3, 0},
                                  env::Vec2i{0, -1}, env::Vec2i{0, 2},
                                  env::Vec2i{-1, -1}, env::Vec2i{3, 2}})
        log.readCell(cell);
    EXPECT_FALSE(log.conflicted());
}

TEST(AccessLog, ObjectAddedMidTurnAbortsAndStaysInRange)
{
    env::World world(env::GridMap(4, 3));
    world.addAgent({0, 0});
    env::spec::AccessLog log;
    world.setAccessLog(&log);
    log.beginPhase();
    log.beginTurn();
    env::Object obj;
    obj.pos = {2, 1};
    const env::ObjectId id = world.addObject(obj);
    EXPECT_TRUE(log.aborted());
    // The new object has a slot: writing and reading it index in range.
    world.object(id).pos = {3, 1};
    EXPECT_FALSE(log.conflicted());
    log.beginTurn();
    EXPECT_FALSE(log.aborted());
    EXPECT_EQ(std::as_const(world).object(id).pos, (env::Vec2i{3, 1}));
    EXPECT_TRUE(log.conflicted());
    world.setAccessLog(nullptr);
}

// ------------------------------------------------------ bare grid world

/** A bare GridEnvironment over a given grid, exposing the spawn helpers. */
class BareGridEnv : public GridEnvironment
{
  public:
    explicit BareGridEnv(env::GridMap grid)
        : GridEnvironment(std::move(grid))
    {
    }

    std::vector<env::Subgoal> usefulSubgoals(int) const override
    {
        return {};
    }
    std::vector<env::Subgoal> validSubgoals(int) const override
    {
        return {};
    }

    using GridEnvironment::randomFreeCell;
    using GridEnvironment::randomFreeCellInRoom;
};

// ------------------------------------------------ motionCost's read set

/** The reference A* for motionCost(from, to): adjacent arrival, every
 * body not standing on `from` blocked. */
test::AStarOutcome
referenceMotion(const env::World &world, const env::Vec2i &from,
                const env::Vec2i &to)
{
    std::vector<env::Vec2i> blocked;
    for (const env::AgentBody &body : world.bodies())
        if (!(body.pos == from))
            blocked.push_back(body.pos);
    return test::referenceAStar(world.grid(), from, to,
                                /*adjacent_ok=*/true, &blocked);
}

/**
 * motionCost reads the occupancy of exactly the cells the reference A*
 * probed: with one cell stamped by an earlier turn of the phase, the
 * path query conflicts exactly when the reference consulted that cell.
 * Re-runs the query once per grid cell with `log` attached.
 */
void
expectReadSetMatches(env::Environment &environment,
                     env::spec::AccessLog &log, const env::Vec2i &from,
                     const env::Vec2i &to, const test::AStarOutcome &want)
{
    env::World &world = environment.world();
    const env::GridMap &grid = world.grid();
    const double want_cost = want.path ? want.path->cost : -1.0;
    std::vector<char> probed(
        static_cast<std::size_t>(grid.width() * grid.height()), 0);
    for (const env::Vec2i &cell : want.queried)
        probed[static_cast<std::size_t>(cell.y * grid.width() + cell.x)] = 1;
    world.setAccessLog(&log);
    for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
            log.beginPhase();
            log.beginTurn();
            log.writeCell({x, y});
            log.beginTurn();
            EXPECT_EQ(environment.motionCost(from, to, nullptr), want_cost);
            EXPECT_EQ(log.conflicted(),
                      probed[static_cast<std::size_t>(y * grid.width() +
                                                      x)] != 0)
                << "cell (" << x << ", " << y << ")";
        }
    }
    world.setAccessLog(nullptr);
}

template <typename Env>
void
expectMotionReadSetMatchesReference(int agents)
{
    Env environment(Difficulty::Hard, agents, sim::Rng(17));
    const env::World &world = environment.world();
    ASSERT_EQ(world.bodies().size(), static_cast<std::size_t>(agents));
    const env::GridMap &grid = world.grid();
    std::vector<env::Vec2i> targets;
    for (const auto &obj : world.objects())
        targets.push_back(obj.pos);
    sim::Rng rng(5);
    for (int i = 0; i < 8; ++i)
        targets.push_back({rng.uniformInt(0, grid.width() - 1),
                           rng.uniformInt(0, grid.height() - 1)});

    env::spec::AccessLog log;
    int compared = 0;
    for (const env::AgentBody &mover : world.bodies()) {
        for (const env::Vec2i &to : targets) {
            SCOPED_TRACE(compared);
            expectReadSetMatches(environment, log, mover.pos, to,
                                 referenceMotion(world, mover.pos, to));
            ++compared;
        }
    }
    EXPECT_GT(compared, agents * 8);
}

TEST(MotionReadSet, KitchenMatchesReferenceProbes)
{
    expectMotionReadSetMatchesReference<KitchenEnv>(6);
}

TEST(MotionReadSet, TransportMatchesReferenceProbes)
{
    expectMotionReadSetMatchesReference<TransportEnv>(8);
}

/**
 * A failed query answered by the free-space labels, with no search, logs
 * the same read set the failed search would have: a body in the only
 * doorway seals the left room, a first failed query labels it, and after
 * an unrelated move in the right room the same query takes the fast path.
 */
TEST(MotionReadSet, FastRejectionMatchesReferenceProbes)
{
    // Two 4x4 rooms; the doorway between them is (5, 3).
    BareGridEnv environment(env::GridMap::apartment(2, 1, 4, 4));
    env::World &world = environment.world();
    const env::Vec2i from{2, 2};
    const env::Vec2i to{8, 4};
    world.addAgent(from);
    world.addAgent({5, 3});
    const int other = world.addAgent({7, 2});

    EXPECT_EQ(environment.motionCost(from, to, nullptr), -1.0);
    EXPECT_EQ(environment.pathWork().searches, 1);
    EXPECT_EQ(environment.pathWork().fast_rejections, 0);
    world.agent(other).pos = {7, 3};

    EXPECT_EQ(environment.motionCost(from, to, nullptr), -1.0);
    EXPECT_EQ(environment.pathWork().searches, 1);
    EXPECT_EQ(environment.pathWork().fast_rejections, 1);
    const test::AStarOutcome want = referenceMotion(world, from, to);
    ASSERT_FALSE(want.path.has_value());
    env::spec::AccessLog log;
    expectReadSetMatches(environment, log, from, to, want);
    EXPECT_EQ(environment.pathWork().searches, 1);
}

// ---------------------------------------------------- free-space labels

/** A w x h grid whose cells are walls with probability `density`. */
env::GridMap
randomWalls(int w, int h, double density, sim::Rng &rng)
{
    env::GridMap grid(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (rng.bernoulli(density))
                grid.setWalkable({x, y}, false);
    return grid;
}

/**
 * motionCost stays equal to the reference A* — the -1 or the cost, the
 * path, and the logged read set — while bodies step, teleport, stack on
 * one cell and join, and walls change, so that the label cache answers
 * many failed queries with no search. Once an environment's first search
 * has failed, no later query whose start is walkable and whose goal is
 * on the grid fails in a search: the labels answer every one of them.
 */
TEST(FreeSpaceLabels, MatchesReferenceUnderBodyMoves)
{
    sim::Rng rng(29);
    env::spec::AccessLog log;
    env::PathWork work;
    int starts_by_free_neighbours[5] = {0, 0, 0, 0, 0};
    int checked_after_start = 0;
    for (int world_index = 0; world_index < 24; ++world_index) {
        const int w = rng.uniformInt(6, 11);
        const int h = rng.uniformInt(6, 11);
        // Denser walls leave narrow passages that one body can seal.
        const double density = 0.15 + 0.05 * (world_index % 6);
        BareGridEnv environment(randomWalls(w, h, density, rng));
        env::World &world = environment.world();
        bool started = false;
        const int bodies = rng.uniformInt(2, 12);
        for (int i = 0; i < bodies; ++i) {
            // Every third body stands on a cell another already holds.
            if (i % 3 == 2)
                world.addAgent(world.agent(rng.uniformInt(0, i - 1)).pos);
            else
                world.addAgent(environment.randomFreeCell(rng));
        }
        auto randomCell = [&] {
            return env::Vec2i{rng.uniformInt(0, w - 1),
                              rng.uniformInt(0, h - 1)};
        };
        for (int event = 0; event < 100; ++event) {
            SCOPED_TRACE("world " + std::to_string(world_index) +
                         " event " + std::to_string(event));
            if (event == 40) { // a body joins
                world.addAgent(environment.randomFreeCell(rng));
                continue;
            }
            if (event % 16 == 8) { // a wall appears or opens
                const env::Vec2i cell = randomCell();
                world.grid().setWalkable(cell, !world.grid().walkable(cell));
                continue;
            }
            env::AgentBody &body =
                world.agent(rng.uniformInt(0, world.agentCount() - 1));
            const int pick = rng.uniformInt(0, 19);
            if (pick < 6) { // a step
                const env::Vec2i next =
                    body.pos + env::kNeighborOffsets[rng.uniformInt(0, 3)];
                if (world.grid().walkable(next))
                    body.pos = next;
                continue;
            }
            if (pick < 8) { // a teleport, sometimes onto another body
                body.pos = rng.bernoulli(0.5)
                               ? environment.randomFreeCell(rng)
                               : world.agent(0).pos;
                continue;
            }
            // A query from a body (sometimes from any free cell) to a
            // wall, a corner, a cell near the start or anywhere.
            const env::Vec2i from = rng.bernoulli(0.8)
                                        ? body.pos
                                        : environment.randomFreeCell(rng);
            env::Vec2i to = randomCell();
            switch (rng.uniformInt(0, 3)) {
            case 0:
                for (int tries = 0; tries < 20 && world.grid().walkable(to);
                     ++tries)
                    to = randomCell();
                break;
            case 1:
                to = {rng.bernoulli(0.5) ? 0 : w - 1,
                      rng.bernoulli(0.5) ? 0 : h - 1};
                break;
            case 2:
                to = {from.x + rng.uniformInt(-2, 2),
                      from.y + rng.uniformInt(-2, 2)};
                break;
            default:
                break;
            }
            int free_neighbours = 0;
            for (const env::Vec2i &d : env::kNeighborOffsets)
                if (world.grid().walkable(from + d) &&
                    !world.occupiedByOther(-1, from + d))
                    ++free_neighbours;
            ++starts_by_free_neighbours[free_neighbours];

            const test::AStarOutcome want = referenceMotion(world, from, to);
            const env::PathWork before = environment.pathWork();
            std::vector<env::Vec2i> path;
            EXPECT_EQ(environment.motionCost(from, to, &path),
                      want.path ? want.path->cost : -1.0);
            if (want.path) {
                EXPECT_EQ(path, want.path->cells);
            }
            const env::PathWork after = environment.pathWork();
            if (started && world.grid().walkable(from) &&
                world.grid().inBounds(to)) {
                EXPECT_EQ(after.failed, before.failed);
                ++checked_after_start;
            }
            started = started || (after.failed > before.failed &&
                                  after.expanded > before.expanded);
            expectReadSetMatches(environment, log, from, to, want);
        }
        const env::PathWork env_work = environment.pathWork();
        work.searches += env_work.searches;
        work.failed += env_work.failed;
        work.fast_rejections += env_work.fast_rejections;
    }
    // The sequence reached both answers, the fast path, and starts with
    // every number of free neighbours.
    EXPECT_GT(work.fast_rejections, 1000);
    EXPECT_GT(checked_after_start, 500);
    EXPECT_GT(work.failed, 20);
    EXPECT_GT(work.searches - work.failed, 1000);
    for (int n = 0; n <= 4; ++n)
        EXPECT_GT(starts_by_free_neighbours[n], 0)
            << n << " free neighbours";
}

/**
 * Runs motionCost(from, to) once and checks its cost and path against the
 * reference A*, then its per-cell read set; returns the path work of that
 * first call alone.
 */
env::PathWork
queryMatchingReference(GridEnvironment &environment, const env::Vec2i &from,
                       const env::Vec2i &to)
{
    const test::AStarOutcome want =
        referenceMotion(environment.world(), from, to);
    const env::PathWork before = environment.pathWork();
    std::vector<env::Vec2i> path;
    EXPECT_EQ(environment.motionCost(from, to, &path),
              want.path ? want.path->cost : -1.0);
    if (want.path) {
        EXPECT_EQ(path, want.path->cells);
    }
    const env::PathWork after = environment.pathWork();
    env::spec::AccessLog log;
    expectReadSetMatches(environment, log, from, to, want);
    env::PathWork delta;
    delta.queries = after.queries - before.queries;
    delta.searches = after.searches - before.searches;
    delta.failed = after.failed - before.failed;
    delta.fast_rejections = after.fast_rejections - before.fast_rejections;
    delta.expanded = after.expanded - before.expanded;
    delta.labelled_cells = after.labelled_cells - before.labelled_cells;
    return delta;
}

/**
 * A body stepping across an open room keeps every label: each cell it
 * enters is a simple point (its free 4-neighbours stay joined around its
 * 8-ring) and each cell it leaves joins the room's component, so the next
 * sealed query needs no search and relabels nothing.
 */
TEST(FreeSpaceLabels, BodyStepAcrossOpenRoomKeepsLabels)
{
    // Two 4x4 rooms; a body in the only doorway (5, 3) seals the left one.
    BareGridEnv environment(env::GridMap::apartment(2, 1, 4, 4));
    env::World &world = environment.world();
    const env::Vec2i from{2, 2};
    const env::Vec2i to{8, 4};
    world.addAgent(from);
    world.addAgent({5, 3});
    const int walker = world.addAgent({1, 4});

    const env::PathWork first = queryMatchingReference(environment, from, to);
    EXPECT_EQ(first.searches, 1);
    EXPECT_EQ(first.failed, 1);
    // The start labels every free cell: 32 room cells and the doorway,
    // less three bodies.
    EXPECT_EQ(first.labelled_cells, 30);

    for (const env::Vec2i &step : {env::Vec2i{2, 4}, env::Vec2i{3, 4},
                                   env::Vec2i{3, 3}, env::Vec2i{4, 3}}) {
        SCOPED_TRACE("step to (" + std::to_string(step.x) + ", " +
                     std::to_string(step.y) + ")");
        world.agent(walker).pos = step;
        const env::PathWork work =
            queryMatchingReference(environment, from, to);
        EXPECT_EQ(work.searches, 0);
        EXPECT_EQ(work.fast_rejections, 1);
        EXPECT_EQ(work.labelled_cells, 0);
    }
    // A query inside the room still searches, and finds the path.
    const env::PathWork inside =
        queryMatchingReference(environment, from, {4, 1});
    EXPECT_EQ(inside.searches, 1);
    EXPECT_EQ(inside.failed, 0);
}

/** Three 4x4 rooms in a row (doorways (5, 3) and (10, 3)) with a body
 * sealing the right doorway, one body in the left room and two in the
 * middle room, so the middle side of the left doorway is the smaller;
 * the labels are started by a failed query towards the right room. */
struct ThreeRooms
{
    BareGridEnv environment{env::GridMap::apartment(3, 1, 4, 4)};
    const env::Vec2i left{2, 2};
    const env::Vec2i middle{7, 2};
    const env::Vec2i right{13, 3};
    int mover = -1;

    ThreeRooms()
    {
        env::World &world = environment.world();
        world.addAgent({10, 3});
        world.addAgent(left);
        world.addAgent(middle);
        world.addAgent({6, 4});
        mover = world.addAgent({8, 4});
        const env::PathWork first =
            queryMatchingReference(environment, left, right);
        EXPECT_EQ(first.failed, 1);
        // Every free cell: 48 room cells and two doorways, less 5 bodies.
        EXPECT_EQ(first.labelled_cells, 45);
    }
};

/**
 * A body entering a one-cell doorway is not a simple point: the doorway's
 * two free 4-neighbours lie in separate runs of its 8-ring. The labels
 * split the component in place, moving only the smaller side to a new
 * id, so no later query from either side searches.
 */
TEST(FreeSpaceLabels, BodyEnteringDoorwaySplitsComponentInPlace)
{
    ThreeRooms rooms;
    GridEnvironment &environment = rooms.environment;
    // Still one component: the next query is answered from the labels.
    EXPECT_EQ(
        queryMatchingReference(environment, rooms.middle, rooms.right)
            .fast_rejections,
        1);

    environment.world().agent(rooms.mover).pos = {5, 3};
    const env::PathWork entered =
        queryMatchingReference(environment, rooms.left, rooms.right);
    EXPECT_EQ(entered.searches, 0);
    EXPECT_EQ(entered.failed, 0);
    EXPECT_EQ(entered.fast_rejections, 1);
    // The middle room less two bodies moved; the left room's 15 did not.
    EXPECT_EQ(entered.labelled_cells, 14);

    // Each side now rejects a goal on the other with no search.
    const env::PathWork back =
        queryMatchingReference(environment, rooms.middle, {2, 4});
    EXPECT_EQ(back.searches, 0);
    EXPECT_EQ(back.fast_rejections, 1);
    EXPECT_EQ(back.labelled_cells, 0);
    // A query inside the left room still searches, and finds the path.
    const env::PathWork inside =
        queryMatchingReference(environment, rooms.left, {4, 4});
    EXPECT_EQ(inside.searches, 1);
    EXPECT_EQ(inside.failed, 0);
}

/**
 * The same body leaving the doorway frees a cell whose free 4-neighbours
 * carry the two sides' ids: they merge into one component with no
 * search (the smaller side moves into the larger), and a query from
 * either side is answered from the labels.
 */
TEST(FreeSpaceLabels, BodyLeavingDoorwayMergesSidesWithoutFlood)
{
    ThreeRooms rooms;
    GridEnvironment &environment = rooms.environment;
    env::World &world = environment.world();
    world.agent(rooms.mover).pos = {5, 3};
    EXPECT_EQ(queryMatchingReference(environment, rooms.left, rooms.right)
                  .labelled_cells,
              14); // the split moves the middle side

    // Out of the doorway into the middle room's corner, next to the
    // sealed right doorway: a simple point of the merged component.
    world.agent(rooms.mover).pos = {9, 4};
    for (const env::Vec2i &from : {rooms.left, rooms.middle}) {
        const env::PathWork work =
            queryMatchingReference(environment, from, rooms.right);
        EXPECT_EQ(work.searches, 0);
        EXPECT_EQ(work.fast_rejections, 1);
        // The first query merges: the middle side's 14 cells move into
        // the left side's id.
        EXPECT_EQ(work.labelled_cells, from == rooms.left ? 14 : 0);
    }
    // Across the reopened doorway, the search finds the path.
    const env::PathWork across =
        queryMatchingReference(environment, rooms.left, {8, 1});
    EXPECT_EQ(across.searches, 1);
    EXPECT_EQ(across.failed, 0);
}

// ------------------------------------------------------ spawn-cell checks

env::GridMap
allWalls(int w, int h)
{
    env::GridMap grid(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            grid.setWalkable({x, y}, false);
    return grid;
}

TEST(SpawnCellValidation, RoomWithoutFreeCellIsRejected)
{
    const BareGridEnv environment(env::GridMap::apartment(2, 1, 4, 4));
    sim::Rng rng(1);
    EXPECT_EQ(environment.world().grid().room(
                  environment.randomFreeCellInRoom(1, rng)),
              1);
    try {
        environment.randomFreeCellInRoom(2, rng);
        ADD_FAILURE() << "room 2 of a two-room apartment accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("room 2 has no free cell"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Room draws equal a pick from a fresh row-major scan of the room's
 * walkable cells with the same generator, also after grid edits between
 * draws; a room walled off completely is rejected.
 */
TEST(SpawnCellValidation, RoomDrawFollowsGridEdits)
{
    BareGridEnv environment(env::GridMap::apartment(2, 1, 4, 4));
    env::GridMap &grid = environment.world().grid();
    auto scan = [&](int room) {
        std::vector<env::Vec2i> cells;
        for (int y = 0; y < grid.height(); ++y)
            for (int x = 0; x < grid.width(); ++x)
                if (grid.walkable({x, y}) && grid.room({x, y}) == room)
                    cells.push_back({x, y});
        return cells;
    };
    sim::Rng rng(7);
    sim::Rng want(7);
    for (const env::Vec2i &wall :
         {env::Vec2i{1, 1}, env::Vec2i{2, 2}, env::Vec2i{3, 3},
          env::Vec2i{7, 2}}) {
        for (int draw = 0; draw < 8; ++draw)
            for (int room = 0; room < 2; ++room)
                EXPECT_EQ(environment.randomFreeCellInRoom(room, rng),
                          want.pick(scan(room)));
        grid.setWalkable(wall, false);
    }
    for (const env::Vec2i &cell : scan(0))
        grid.setWalkable(cell, false);
    EXPECT_THROW(environment.randomFreeCellInRoom(0, rng),
                 std::invalid_argument);
    EXPECT_EQ(environment.randomFreeCellInRoom(1, rng),
              want.pick(scan(1)));
}

TEST(SpawnCellValidation, GridWithoutWalkableCellIsRejected)
{
    const BareGridEnv environment(allWalls(3, 2));
    sim::Rng rng(1);
    try {
        const env::Vec2i cell = environment.randomFreeCell(rng);
        ADD_FAILURE() << "returned (" << cell.x << ", " << cell.y
                      << ") of an all-wall grid";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "3x2 grid has no walkable cell"),
                  std::string::npos)
            << e.what();
    }
}

/** When rejection sampling misses the only walkable cell, the exact
 * fallback still finds it rather than returning a wall. */
TEST(SpawnCellValidation, SparseGridFallsBackToExactDraw)
{
    env::GridMap grid = allWalls(300, 300);
    grid.setWalkable({123, 45}, true);
    const BareGridEnv environment(std::move(grid));
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        sim::Rng rng(seed);
        EXPECT_EQ(environment.randomFreeCell(rng), (env::Vec2i{123, 45}));
    }
}

// -------------------------------------------------- cross-env property sweep

struct EnvCase
{
    const char *name;
    int agents;
    std::unique_ptr<env::Environment> (*make)(Difficulty, int, sim::Rng);
};

template <typename T>
std::unique_ptr<env::Environment>
makeEnv(Difficulty d, int n, sim::Rng rng)
{
    return std::make_unique<T>(d, n, rng);
}

const EnvCase kEnvCases[] = {
    {"transport", 2, &makeEnv<TransportEnv>},
    {"kitchen", 2, &makeEnv<KitchenEnv>},
    {"household", 2, &makeEnv<HouseholdEnv>},
    {"craft", 1, &makeEnv<CraftEnv>},
    {"boxnet", 2, &makeEnv<BoxNetEnv>},
    {"warehouse", 2, &makeEnv<WarehouseEnv>},
    {"boxlift", 3, &makeEnv<BoxLiftEnv>},
    {"manipulation", 2, &makeEnv<ManipulationEnv>},
};

class AllEnvsSweep
    : public ::testing::TestWithParam<std::tuple<int, Difficulty>>
{
};

/** Property: the scripted oracle solves every environment at every
 * difficulty well inside a generous step budget — i.e., all generated
 * tasks are solvable and the oracles are coherent. */
TEST_P(AllEnvsSweep, OracleSolvesTask)
{
    const auto [case_idx, difficulty] = GetParam();
    const EnvCase &c = kEnvCases[case_idx];
    auto environment = c.make(difficulty, c.agents, sim::Rng(31));
    const int steps = test::oracleRollout(*environment, 500);
    EXPECT_GT(steps, 0) << c.name << " unsolvable at difficulty "
                        << static_cast<int>(difficulty);
}

/** Property: oracle subgoals always compile to feasible plans. */
TEST_P(AllEnvsSweep, OracleSubgoalsCompile)
{
    const auto [case_idx, difficulty] = GetParam();
    const EnvCase &c = kEnvCases[case_idx];
    auto environment = c.make(difficulty, c.agents, sim::Rng(37));
    for (int a = 0; a < environment->world().agentCount(); ++a) {
        for (const auto &sg : environment->usefulSubgoals(a)) {
            const auto compiled = plan::compileSubgoal(*environment, a, sg);
            EXPECT_TRUE(compiled.feasible)
                << c.name << ": " << sg.describe() << " -> "
                << compiled.reason;
        }
    }
}

/** Property: useful subgoals are a subset of valid subgoals (oracle never
 * proposes something the action space does not admit). */
TEST_P(AllEnvsSweep, UsefulIsSubsetOfValid)
{
    const auto [case_idx, difficulty] = GetParam();
    const EnvCase &c = kEnvCases[case_idx];
    auto environment = c.make(difficulty, c.agents, sim::Rng(41));
    for (int a = 0; a < environment->world().agentCount(); ++a) {
        const auto valid = environment->validSubgoals(a);
        for (const auto &sg : environment->usefulSubgoals(a)) {
            const bool found =
                std::find(valid.begin(), valid.end(), sg) != valid.end();
            EXPECT_TRUE(found) << c.name << ": " << sg.describe();
        }
    }
}

/** Property: observations never leak other rooms' objects. */
TEST_P(AllEnvsSweep, ObservationIsLocal)
{
    const auto [case_idx, difficulty] = GetParam();
    const EnvCase &c = kEnvCases[case_idx];
    auto environment = c.make(difficulty, c.agents, sim::Rng(43));
    for (int a = 0; a < environment->world().agentCount(); ++a) {
        const auto obs = environment->observe(a, 0);
        for (const auto &seen : obs.objects)
            EXPECT_EQ(environment->world().grid().room(seen.pos), obs.room);
    }
}

/** Property: the anchor table built at construction (after any grid
 * carving) equals the reference scan for every room. */
TEST_P(AllEnvsSweep, RoomAnchorTableMatchesScan)
{
    const auto [case_idx, difficulty] = GetParam();
    const EnvCase &c = kEnvCases[case_idx];
    auto environment = c.make(difficulty, c.agents, sim::Rng(47));
    const env::GridMap &grid = environment->world().grid();
    const auto table = env::roomAnchorTable(grid);
    ASSERT_EQ(table.size(), static_cast<std::size_t>(grid.roomCount()));
    for (int room = 0; room < grid.roomCount(); ++room) {
        const env::Vec2i want = env::scanRoomAnchor(grid, room);
        EXPECT_EQ(table[static_cast<std::size_t>(room)], want)
            << c.name << " room " << room;
        EXPECT_EQ(environment->roomAnchor(room), want)
            << c.name << " room " << room;
    }
    EXPECT_EQ(environment->roomAnchor(grid.roomCount()),
              (env::Vec2i{-1, -1}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllEnvsSweep,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(Difficulty::Easy, Difficulty::Medium,
                                         Difficulty::Hard)));

} // namespace
} // namespace ebs::envs
