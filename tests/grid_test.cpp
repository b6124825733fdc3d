#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "env/grid.h"

namespace ebs::env {
namespace {

TEST(GridMap, DefaultAllWalkableSingleRoom)
{
    GridMap g(4, 3);
    EXPECT_EQ(g.width(), 4);
    EXPECT_EQ(g.height(), 3);
    EXPECT_EQ(g.roomCount(), 1);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x) {
            EXPECT_TRUE(g.walkable({x, y}));
            EXPECT_EQ(g.room({x, y}), 0);
        }
}

TEST(GridMap, BoundsChecks)
{
    GridMap g(4, 3);
    EXPECT_FALSE(g.inBounds({-1, 0}));
    EXPECT_FALSE(g.inBounds({4, 0}));
    EXPECT_FALSE(g.inBounds({0, 3}));
    EXPECT_FALSE(g.walkable({9, 9}));
    EXPECT_EQ(g.room({9, 9}), -1);
}

TEST(GridMap, WallsBlockAndClearRoom)
{
    GridMap g(4, 4);
    g.setWalkable({1, 1}, false);
    EXPECT_FALSE(g.walkable({1, 1}));
    EXPECT_EQ(g.room({1, 1}), -1);
}

TEST(GridMap, NeighborsExcludeWallsAndBounds)
{
    GridMap g(3, 3);
    g.setWalkable({1, 0}, false);
    const auto n = g.neighbors({0, 0});
    // (1,0) is a wall; (0,1) remains; out-of-bounds excluded.
    ASSERT_EQ(n.size(), 1u);
    EXPECT_EQ(n[0], (Vec2i{0, 1}));
}

TEST(GridApartment, DimensionsAndRoomCount)
{
    const GridMap g = GridMap::apartment(3, 2, 5, 4);
    EXPECT_EQ(g.width(), 3 * 6 + 1);
    EXPECT_EQ(g.height(), 2 * 5 + 1);
    EXPECT_EQ(g.roomCount(), 6);
}

TEST(GridApartment, BorderIsWall)
{
    const GridMap g = GridMap::apartment(2, 2, 4, 4);
    for (int x = 0; x < g.width(); ++x) {
        EXPECT_FALSE(g.walkable({x, 0}));
        EXPECT_FALSE(g.walkable({x, g.height() - 1}));
    }
    for (int y = 0; y < g.height(); ++y) {
        EXPECT_FALSE(g.walkable({0, y}));
        EXPECT_FALSE(g.walkable({g.width() - 1, y}));
    }
}

TEST(GridApartment, RoomInteriorsLabeledRowMajor)
{
    const GridMap g = GridMap::apartment(2, 2, 4, 4);
    EXPECT_EQ(g.room({1, 1}), 0);
    EXPECT_EQ(g.room({6, 1}), 1);
    EXPECT_EQ(g.room({1, 6}), 2);
    EXPECT_EQ(g.room({6, 6}), 3);
}

/** Flood fill over walkable cells. */
std::size_t
reachableFrom(const GridMap &g, const Vec2i &start)
{
    std::set<std::pair<int, int>> seen;
    std::queue<Vec2i> queue;
    queue.push(start);
    seen.insert({start.x, start.y});
    while (!queue.empty()) {
        const Vec2i p = queue.front();
        queue.pop();
        for (const auto &q : g.neighbors(p))
            if (seen.insert({q.x, q.y}).second)
                queue.push(q);
    }
    return seen.size();
}

/** Property: every walkable cell of an apartment is mutually reachable —
 * doorways connect all rooms. */
class ApartmentConnectivity
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ApartmentConnectivity, AllRoomsConnected)
{
    const auto [rx, ry] = GetParam();
    const GridMap g = GridMap::apartment(rx, ry, 5, 5);

    std::size_t walkable = 0;
    Vec2i start{-1, -1};
    for (int y = 0; y < g.height(); ++y)
        for (int x = 0; x < g.width(); ++x)
            if (g.walkable({x, y})) {
                ++walkable;
                if (start.x < 0)
                    start = {x, y};
            }
    ASSERT_GT(walkable, 0u);
    EXPECT_EQ(reachableFrom(g, start), walkable);
}

TEST(GridMap, MutationsBumpVersionAndCopiesCarryIt)
{
    GridMap g(6, 4);
    const auto v0 = g.version();
    g.setWalkable({1, 1}, false);
    const auto v1 = g.version();
    EXPECT_GT(v1, v0);
    g.setRoom({2, 2}, 3);
    EXPECT_GT(g.version(), v1);

    const GridMap copy = g;
    EXPECT_EQ(copy.version(), g.version());
    // Reads leave it alone.
    (void)g.walkable({1, 1});
    (void)g.room({2, 2});
    (void)g.neighbors({0, 0});
    EXPECT_EQ(copy.version(), g.version());
}

/** `what()` of the exception `fn` throws as E ("" and a test failure if
 * it throws nothing). */
template <typename E, typename Fn>
std::string
thrownMessage(Fn fn)
{
    try {
        fn();
    } catch (const E &e) {
        return e.what();
    }
    ADD_FAILURE() << "no exception thrown";
    return "";
}

TEST(GridMapValidation, RejectsNonPositiveSize)
{
    for (const auto &[w, h] : {std::pair{0, 4}, std::pair{4, 0},
                               std::pair{-3, 2}, std::pair{2, -1}}) {
        const std::string what = thrownMessage<std::invalid_argument>(
            [&] { GridMap g(w, h); });
        EXPECT_NE(what.find(std::to_string(w) + "x" + std::to_string(h)),
                  std::string::npos)
            << what;
    }
}

TEST(GridMapValidation, SetWalkableRejectsCellOutOfBounds)
{
    GridMap g(4, 3);
    const auto version = g.version();
    for (const Vec2i bad : {Vec2i{4, 0}, Vec2i{0, 3}, Vec2i{-1, 1}}) {
        const std::string what = thrownMessage<std::out_of_range>(
            [&] { g.setWalkable(bad, false); });
        EXPECT_NE(what.find("setWalkable: cell (" + std::to_string(bad.x) +
                            ", " + std::to_string(bad.y) + ")"),
                  std::string::npos)
            << what;
    }
    // A rejected edit changes nothing.
    EXPECT_EQ(g.version(), version);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x)
            EXPECT_TRUE(g.walkable({x, y}));
}

TEST(GridMapValidation, SetRoomRejectsCellOutOfBounds)
{
    GridMap g(4, 3);
    const std::string what = thrownMessage<std::out_of_range>(
        [&] { g.setRoom({2, 7}, 5); });
    EXPECT_NE(what.find("setRoom: cell (2, 7) is outside the 4x3 grid"),
              std::string::npos)
        << what;
    EXPECT_EQ(g.roomCount(), 1);
}

TEST(GridMapValidation, ApartmentRejectsBadRoomCountOrSize)
{
    // Unchecked in a Release build, rooms_x = 0 builds a grid of walls
    // with no room at all.
    const std::pair<std::string, std::function<void()>> cases[] = {
        {"rooms_x must be >= 1, got 0",
         [] { GridMap::apartment(0, 2, 4, 4); }},
        {"rooms_y must be >= 1, got -1",
         [] { GridMap::apartment(2, -1, 4, 4); }},
        {"room_w must be >= 3, got 2",
         [] { GridMap::apartment(2, 2, 2, 4); }},
        {"room_h must be >= 3, got 0",
         [] { GridMap::apartment(2, 2, 4, 0); }}};
    for (const auto &[want, build] : cases) {
        const std::string what = thrownMessage<std::invalid_argument>(build);
        EXPECT_NE(what.find("GridMap::apartment: " + want),
                  std::string::npos)
            << what;
    }
    EXPECT_EQ(GridMap::apartment(1, 1, 3, 3).roomCount(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApartmentConnectivity,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 2, 3)));

} // namespace
} // namespace ebs::env
