#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <thread>

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

/** What one A* query produced: the path (if any), the cells whose blocked
 * status it consulted, and how many cells it expanded. */
struct Outcome
{
    std::optional<GridPath> path;
    std::vector<Vec2i> queried;
    std::size_t expanded = 0;
};

void
expectSameOutcome(const Outcome &want, const Outcome &got)
{
    ASSERT_EQ(want.path.has_value(), got.path.has_value());
    if (want.path) {
        EXPECT_EQ(want.path->cells, got.path->cells);
        EXPECT_EQ(want.path->cost, got.path->cost);
    }
    EXPECT_EQ(want.queried, got.queried);
    EXPECT_EQ(want.expanded, got.expanded);
}

struct RefNode
{
    int f;
    int g;
    int idx;

    bool
    operator>(const RefNode &o) const
    {
        return f != o.f ? f > o.f : g < o.g;
    }
};

/**
 * The A* search as first written — fresh buffers per call, a
 * std::priority_queue open list and GridMap::neighbors() — kept verbatim as
 * the oracle the buffer-reusing implementation must reproduce exactly.
 */
Outcome
referenceAStar(const GridMap &grid, const Vec2i &start, const Vec2i &goal,
               bool adjacent_ok, const std::vector<Vec2i> *blocked)
{
    Outcome out;
    if (!grid.inBounds(start) || !grid.inBounds(goal) ||
        !grid.walkable(start))
        return out;

    auto is_blocked = [&](const Vec2i &p) {
        out.queried.push_back(p);
        if (blocked == nullptr)
            return false;
        for (const auto &b : *blocked)
            if (b == p)
                return true;
        return false;
    };
    auto at_goal = [&](const Vec2i &p) {
        return adjacent_ok ? env::chebyshev(p, goal) <= 1 : p == goal;
    };
    if (at_goal(start)) {
        out.path = GridPath{{start}, 0.0};
        return out;
    }

    const int w = grid.width();
    const std::size_t n = static_cast<std::size_t>(w) * grid.height();
    std::vector<std::int32_t> g_score(n, -1);
    std::vector<std::int32_t> parent(n, -1);
    auto index = [&](const Vec2i &p) { return p.y * w + p.x; };
    auto heuristic = [&](const Vec2i &p) {
        const int d = env::manhattan(p, goal);
        return adjacent_ok ? std::max(0, d - 1) : d;
    };

    std::priority_queue<RefNode, std::vector<RefNode>, std::greater<RefNode>>
        open;
    g_score[static_cast<std::size_t>(index(start))] = 0;
    open.push({heuristic(start), 0, index(start)});
    while (!open.empty()) {
        const RefNode cur = open.top();
        open.pop();
        const Vec2i p{cur.idx % w, cur.idx / w};
        if (cur.g > g_score[static_cast<std::size_t>(cur.idx)])
            continue;
        ++out.expanded;
        if (at_goal(p)) {
            GridPath path;
            path.cost = cur.g;
            for (int idx = cur.idx; idx >= 0;
                 idx = parent[static_cast<std::size_t>(idx)])
                path.cells.push_back({idx % w, idx / w});
            std::reverse(path.cells.begin(), path.cells.end());
            out.path = path;
            return out;
        }
        for (const auto &q : grid.neighbors(p)) {
            if (is_blocked(q))
                continue;
            const auto qi = static_cast<std::size_t>(index(q));
            const int ng = cur.g + 1;
            if (g_score[qi] < 0 || ng < g_score[qi]) {
                g_score[qi] = ng;
                parent[qi] = cur.idx;
                open.push({ng + heuristic(q), ng, index(q)});
            }
        }
    }
    return out;
}

/** One seeded random query: a grid with ~25% walls, 0-5 blocked cells,
 * random endpoints and adjacency mode. */
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
    const int blocked = rng.uniformInt(0, 5);
    for (int i = 0; i < blocked; ++i)
        q.blocked.push_back(cell());
    return q;
}

Outcome
runAStar(const Query &q)
{
    Outcome out;
    out.path = aStar(q.grid, q.start, q.goal, q.adjacent_ok, &q.blocked,
                     &out.queried);
    out.expanded = aStarLastExpanded();
    return out;
}

/** Property: paths, costs, queried cells and expansion counts equal the
 * reference on seeded random grids, across calls of varying grid size on
 * one thread (the reused buffers carry nothing between calls). */
TEST(AStarEquivalence, MatchesReferenceOnRandomGrids)
{
    sim::Rng rng(2024);
    int found = 0;
    for (int i = 0; i < 400; ++i) {
        const Query q = randomQuery(rng);
        const Outcome want = referenceAStar(q.grid, q.start, q.goal,
                                            q.adjacent_ok, &q.blocked);
        SCOPED_TRACE(i);
        expectSameOutcome(want, runAStar(q));
        found += want.path.has_value() ? 1 : 0;
    }
    // The sweep must exercise both outcomes.
    EXPECT_GT(found, 50);
    EXPECT_LT(found, 400);
}

/** Property: concurrent calls on different grids, each on its own thread,
 * give the serial reference results (per-thread buffers do not interfere). */
TEST(AStarEquivalence, ConcurrentCallsMatchReference)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 60;
    std::vector<std::vector<Query>> queries(kThreads);
    std::vector<std::vector<Outcome>> want(kThreads);
    sim::Rng rng(77);
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            queries[t].push_back(randomQuery(rng));
            const Query &q = queries[t].back();
            want[t].push_back(referenceAStar(q.grid, q.start, q.goal,
                                             q.adjacent_ok, &q.blocked));
        }
    }

    std::vector<std::vector<Outcome>> got(kThreads);
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

} // namespace
} // namespace ebs::plan
