#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>

#include "astar_reference.h"
#include "env/grid.h"
#include "plan/astar.h"
#include "sim/rng.h"

namespace ebs::plan {
namespace {

using env::GridMap;
using env::Vec2i;

TEST(AStar, TrivialSameCell)
{
    GridMap g(5, 5);
    const auto path = aStar(g, {2, 2}, {2, 2});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, 0.0);
    EXPECT_EQ(path->cells.size(), 1u);
}

TEST(AStar, StraightLineIsManhattan)
{
    GridMap g(10, 10);
    const auto path = aStar(g, {1, 1}, {6, 1});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, 5.0);
    EXPECT_EQ(path->cells.front(), (Vec2i{1, 1}));
    EXPECT_EQ(path->cells.back(), (Vec2i{6, 1}));
}

TEST(AStar, OptimalOnOpenGrid)
{
    GridMap g(20, 20);
    const auto path = aStar(g, {0, 0}, {7, 9});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, 16.0); // Manhattan distance, no obstacles
}

TEST(AStar, RoutesAroundWall)
{
    GridMap g(7, 7);
    for (int y = 0; y < 6; ++y)
        g.setWalkable({3, y}, false); // wall with a gap at y=6
    const auto path = aStar(g, {1, 0}, {5, 0});
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->cost, 4.0);
    // Every step is unit-length and walkable.
    for (std::size_t i = 1; i < path->cells.size(); ++i) {
        EXPECT_EQ(env::manhattan(path->cells[i - 1], path->cells[i]), 1);
        EXPECT_TRUE(g.walkable(path->cells[i]));
    }
}

TEST(AStar, UnreachableReturnsNullopt)
{
    GridMap g(7, 7);
    for (int y = 0; y < 7; ++y)
        g.setWalkable({3, y}, false); // full wall
    EXPECT_FALSE(aStar(g, {1, 1}, {5, 1}).has_value());
}

TEST(AStar, StartOnWallFails)
{
    GridMap g(5, 5);
    g.setWalkable({1, 1}, false);
    EXPECT_FALSE(aStar(g, {1, 1}, {3, 3}).has_value());
}

TEST(AStar, OutOfBoundsFails)
{
    GridMap g(5, 5);
    EXPECT_FALSE(aStar(g, {0, 0}, {9, 9}).has_value());
    EXPECT_FALSE(aStar(g, {-1, 0}, {2, 2}).has_value());
}

TEST(AStar, AdjacentOkStopsNextToGoal)
{
    GridMap g(8, 8);
    const auto path = aStar(g, {0, 0}, {5, 5}, /*adjacent_ok=*/true);
    ASSERT_TRUE(path.has_value());
    EXPECT_LE(env::chebyshev(path->cells.back(), {5, 5}), 1);
    EXPECT_LT(path->cost, 10.0);
}

TEST(AStar, AdjacentOkReachesUnwalkableGoal)
{
    GridMap g(8, 8);
    g.setWalkable({5, 5}, false); // object on furniture
    EXPECT_FALSE(aStar(g, {0, 0}, {5, 5}).has_value());
    const auto path = aStar(g, {0, 0}, {5, 5}, /*adjacent_ok=*/true);
    ASSERT_TRUE(path.has_value());
    EXPECT_LE(env::chebyshev(path->cells.back(), {5, 5}), 1);
}

TEST(AStar, BlockedCellsAvoided)
{
    GridMap g(5, 3);
    // Corridor at y=1 only.
    for (int x = 0; x < 5; ++x) {
        g.setWalkable({x, 0}, false);
        g.setWalkable({x, 2}, false);
    }
    const std::vector<Vec2i> blocked = {{2, 1}};
    EXPECT_TRUE(aStar(g, {0, 1}, {4, 1}).has_value());
    EXPECT_FALSE(aStar(g, {0, 1}, {4, 1}, false, &blocked).has_value());
}

TEST(AStar, BlockedDetourTaken)
{
    GridMap g(5, 5);
    const std::vector<Vec2i> blocked = {{2, 2}};
    const auto direct = aStar(g, {0, 2}, {4, 2});
    const auto detour = aStar(g, {0, 2}, {4, 2}, false, &blocked);
    ASSERT_TRUE(direct.has_value());
    ASSERT_TRUE(detour.has_value());
    EXPECT_GE(detour->cost, direct->cost);
    for (const auto &cell : detour->cells)
        EXPECT_FALSE(cell == (Vec2i{2, 2}));
}

TEST(AStar, ExpansionCounterPopulated)
{
    GridMap g(30, 30);
    ASSERT_TRUE(aStar(g, {0, 0}, {29, 29}).has_value());
    EXPECT_GT(aStarLastExpanded(), 0u);
}

TEST(AStar, ApartmentCrossRoomPath)
{
    const GridMap g = GridMap::apartment(3, 3, 6, 6);
    const auto path = aStar(g, {1, 1}, {g.width() - 2, g.height() - 2});
    ASSERT_TRUE(path.has_value());
    EXPECT_GT(path->cost, 0.0);
}

/** Property: A* cost equals Manhattan distance on an empty grid, for a
 * sweep of endpoints. */
class AStarManhattanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(AStarManhattanSweep, CostIsManhattan)
{
    const auto [gx, gy] = GetParam();
    GridMap g(25, 25);
    const auto path = aStar(g, {3, 4}, {gx, gy});
    ASSERT_TRUE(path.has_value());
    EXPECT_DOUBLE_EQ(path->cost, env::manhattan({3, 4}, {gx, gy}));
}

INSTANTIATE_TEST_SUITE_P(Endpoints, AStarManhattanSweep,
                         ::testing::Combine(::testing::Values(0, 7, 12, 24),
                                            ::testing::Values(0, 9, 24)));

// ----------------------------------------------- reference implementation

using test::AStarOutcome;
using test::referenceAStar;

void
expectSameOutcome(const AStarOutcome &want, const AStarOutcome &got)
{
    ASSERT_EQ(want.path.has_value(), got.path.has_value());
    if (want.path) {
        EXPECT_EQ(want.path->cells, got.path->cells);
        EXPECT_EQ(want.path->cost, got.path->cost);
    }
    EXPECT_EQ(want.queried, got.queried);
    EXPECT_EQ(want.expanded, got.expanded);
}

/** One seeded random query: a grid with ~25% walls, random endpoints and
 * adjacency mode, and either 0-5 blocked cells or a body set of 2-12
 * cells that may repeat cells, include the start, and fall off the grid
 * (motionCost passes every other body, wherever it stands). */
struct Query
{
    GridMap grid{1, 1};
    Vec2i start;
    Vec2i goal;
    bool adjacent_ok = false;
    std::vector<Vec2i> blocked;
};

Query
randomQuery(sim::Rng &rng)
{
    Query q;
    const int w = rng.uniformInt(2, 24);
    const int h = rng.uniformInt(2, 24);
    q.grid = GridMap(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (rng.bernoulli(0.25))
                q.grid.setWalkable({x, y}, false);
    auto cell = [&] {
        return Vec2i{rng.uniformInt(0, w - 1), rng.uniformInt(0, h - 1)};
    };
    q.start = cell();
    q.grid.setWalkable(q.start, true);
    q.goal = cell();
    q.adjacent_ok = rng.bernoulli(0.5);
    if (rng.bernoulli(0.5)) {
        const int blocked = rng.uniformInt(0, 5);
        for (int i = 0; i < blocked; ++i)
            q.blocked.push_back(cell());
        return q;
    }
    const int bodies = rng.uniformInt(2, 12);
    for (int i = 0; i < bodies; ++i) {
        const int kind = rng.uniformInt(0, 9);
        if (kind == 0 && !q.blocked.empty())
            q.blocked.push_back(q.blocked[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(q.blocked.size()) - 1))]);
        else if (kind == 1)
            q.blocked.push_back(q.start);
        else if (kind == 2)
            q.blocked.push_back({rng.uniformInt(-2, w + 1),
                                 rng.bernoulli(0.5) ? -1 : h});
        else
            q.blocked.push_back(cell());
    }
    return q;
}

AStarOutcome
runAStar(const Query &q)
{
    AStarOutcome out;
    out.path = aStar(q.grid, q.start, q.goal, q.adjacent_ok, &q.blocked,
                     &out.queried);
    out.expanded = aStarLastExpanded();
    return out;
}

/** Property: paths, costs, queried cells and expansion counts equal the
 * reference on seeded random grids, across calls of varying grid size on
 * one thread, and across calls alternating a wide and a narrow grid of
 * equal area, whose cells share row-major indices: the reused buffers
 * and stamps carry nothing between calls. */
TEST(AStarEquivalence, MatchesReferenceOnRandomGrids)
{
    sim::Rng rng(2024);
    auto check = [](const Query &q, int i) {
        const AStarOutcome want =
            referenceAStar(q.grid, q.start, q.goal, q.adjacent_ok, &q.blocked);
        SCOPED_TRACE(i);
        expectSameOutcome(want, runAStar(q));
        return want;
    };
    int found = 0;
    for (int i = 0; i < 400; ++i)
        found += check(randomQuery(rng), i).path.has_value() ? 1 : 0;
    // The sweep must exercise both outcomes.
    EXPECT_GT(found, 50);
    EXPECT_LT(found, 400);

    const GridMap wide(23, 5);
    const GridMap narrow(5, 23);
    int detours = 0;
    for (int i = 0; i < 200; ++i) {
        Query q;
        q.grid = i % 2 == 0 ? wide : narrow;
        auto cell = [&] {
            return Vec2i{rng.uniformInt(0, q.grid.width() - 1),
                         rng.uniformInt(0, q.grid.height() - 1)};
        };
        q.start = cell();
        q.goal = cell();
        q.adjacent_ok = rng.bernoulli(0.5);
        const int bodies = i % 3 == 0 ? 0 : rng.uniformInt(2, 12);
        for (int b = 0; b < bodies; ++b)
            q.blocked.push_back(cell());
        const AStarOutcome want = check(q, 400 + i);
        // On these wall-free grids a longer-than-direct path is a detour
        // around bodies.
        if (want.path &&
            want.path->cost >
                env::manhattan(q.start, q.goal) - (q.adjacent_ok ? 1 : 0))
            ++detours;
    }
    EXPECT_GT(detours, 0);
}

/** Property: concurrent calls on different grids, each on its own thread,
 * give the serial reference results (per-thread buffers do not interfere). */
TEST(AStarEquivalence, ConcurrentCallsMatchReference)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 60;
    std::vector<std::vector<Query>> queries(kThreads);
    std::vector<std::vector<AStarOutcome>> want(kThreads);
    sim::Rng rng(77);
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            queries[t].push_back(randomQuery(rng));
            const Query &q = queries[t].back();
            want[t].push_back(referenceAStar(q.grid, q.start, q.goal,
                                             q.adjacent_ok, &q.blocked));
        }
    }

    std::vector<std::vector<AStarOutcome>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const Query &q : queries[t])
                got[t].push_back(runAStar(q));
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), want[t].size());
        for (int i = 0; i < kPerThread; ++i) {
            SCOPED_TRACE(t * kPerThread + i);
            expectSameOutcome(want[t][i], got[t][i]);
        }
    }
}

// ------------------------------------------------------- optimality bound

/** Breadth-first distance from `start` to the nearest arrival cell, over
 * walkable cells not in `blocked`; -1 when none is reachable. */
int
bfsCost(const Query &q)
{
    const int w = q.grid.width();
    std::vector<int> dist(static_cast<std::size_t>(w * q.grid.height()), -1);
    auto index = [&](const Vec2i &p) {
        return static_cast<std::size_t>(p.y * w + p.x);
    };
    auto arrived = [&](const Vec2i &p) {
        return q.adjacent_ok ? env::chebyshev(p, q.goal) <= 1 : p == q.goal;
    };
    std::vector<Vec2i> frontier{q.start};
    dist[index(q.start)] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
        const Vec2i p = frontier[head];
        if (arrived(p))
            return dist[index(p)];
        for (const Vec2i &d : env::kNeighborOffsets) {
            const Vec2i n = p + d;
            if (!q.grid.walkable(n) || dist[index(n)] >= 0 ||
                std::find(q.blocked.begin(), q.blocked.end(), n) !=
                    q.blocked.end())
                continue;
            dist[index(n)] = dist[index(p)] + 1;
            frontier.push_back(n);
        }
    }
    return -1;
}

/**
 * Property: with adjacent arrival the heuristic max(0, manhattan - 1)
 * overestimates by one at the goal's diagonal neighbours, so a path may
 * be one step longer than the optimum, never more; with exact arrival
 * the path is optimal. Checked against breadth-first search on seeded
 * random grids with bodies.
 */
TEST(AStar, AdjacentArrivalWithinOneStepOfOptimal)
{
    // The smallest case: the diagonal neighbour (2, 2) arrives in two
    // steps, but A* pops (3, 2) with f = 3 first.
    const GridMap open(5, 5);
    const auto diagonal = aStar(open, {1, 1}, {3, 3}, /*adjacent_ok=*/true);
    ASSERT_TRUE(diagonal.has_value());
    EXPECT_EQ(diagonal->cost, 3.0);

    sim::Rng rng(4242);
    int compared = 0;
    int one_over = 0;
    for (int i = 0; i < 1500; ++i) {
        Query q = randomQuery(rng);
        q.adjacent_ok = i % 3 != 0;
        const int want = bfsCost(q);
        const auto got = aStar(q.grid, q.start, q.goal, q.adjacent_ok,
                               &q.blocked);
        SCOPED_TRACE(i);
        ASSERT_EQ(got.has_value(), want >= 0);
        if (!got)
            continue;
        ++compared;
        const int cost = static_cast<int>(got->cost);
        EXPECT_EQ(cost + 1, static_cast<int>(got->cells.size()));
        if (q.adjacent_ok) {
            EXPECT_GE(cost, want);
            EXPECT_LE(cost, want + 1);
            one_over += cost > want ? 1 : 0;
        } else {
            EXPECT_EQ(cost, want);
        }
    }
    EXPECT_GT(compared, 500);
    // The bound is reached, so it cannot be tightened to "optimal".
    EXPECT_GT(one_over, 0);
}

} // namespace
} // namespace ebs::plan
