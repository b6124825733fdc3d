#ifndef EBS_TESTS_ASTAR_REFERENCE_H
#define EBS_TESTS_ASTAR_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "env/grid.h"
#include "plan/astar.h"

namespace ebs::test {

/** What one A* query produced: the path (if any), the cells whose blocked
 * status it consulted, and how many cells it expanded. */
struct AStarOutcome
{
    std::optional<plan::GridPath> path;
    std::vector<env::Vec2i> queried;
    std::size_t expanded = 0;
};

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
 * std::priority_queue open list, GridMap::neighbors() and a linear scan of
 * `blocked` per probe — kept verbatim. `queried` holds its raw probe list,
 * which repeats cells.
 */
inline AStarOutcome
referenceProbes(const env::GridMap &grid, const env::Vec2i &start,
                const env::Vec2i &goal, bool adjacent_ok,
                const std::vector<env::Vec2i> *blocked)
{
    AStarOutcome out;
    if (!grid.inBounds(start) || !grid.inBounds(goal) ||
        !grid.walkable(start))
        return out;

    auto is_blocked = [&](const env::Vec2i &p) {
        out.queried.push_back(p);
        if (blocked == nullptr)
            return false;
        for (const auto &b : *blocked)
            if (b == p)
                return true;
        return false;
    };
    auto at_goal = [&](const env::Vec2i &p) {
        return adjacent_ok ? env::chebyshev(p, goal) <= 1 : p == goal;
    };
    if (at_goal(start)) {
        out.path = plan::GridPath{{start}, 0.0};
        return out;
    }

    const int w = grid.width();
    const std::size_t n = static_cast<std::size_t>(w) * grid.height();
    std::vector<std::int32_t> g_score(n, -1);
    std::vector<std::int32_t> parent(n, -1);
    auto index = [&](const env::Vec2i &p) { return p.y * w + p.x; };
    auto heuristic = [&](const env::Vec2i &p) {
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
        const env::Vec2i p{cur.idx % w, cur.idx / w};
        if (cur.g > g_score[static_cast<std::size_t>(cur.idx)])
            continue;
        ++out.expanded;
        if (at_goal(p)) {
            plan::GridPath path;
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

/** `probes` deduped to the first occurrence of each cell, order kept. */
inline std::vector<env::Vec2i>
firstOccurrences(const std::vector<env::Vec2i> &probes)
{
    std::vector<env::Vec2i> out;
    for (const env::Vec2i &p : probes)
        if (std::find(out.begin(), out.end(), p) == out.end())
            out.push_back(p);
    return out;
}

/**
 * The oracle plan::aStar must reproduce exactly: referenceProbes with
 * `queried` deduped to the first occurrence of each cell, which is
 * aStar's contract (each consulted cell once, in first-probe order).
 * Shared by astar_test and the access-log read-set test in envs_test.
 */
inline AStarOutcome
referenceAStar(const env::GridMap &grid, const env::Vec2i &start,
               const env::Vec2i &goal, bool adjacent_ok,
               const std::vector<env::Vec2i> *blocked)
{
    AStarOutcome out =
        referenceProbes(grid, start, goal, adjacent_ok, blocked);
    out.queried = firstOccurrences(out.queried);
    return out;
}

} // namespace ebs::test

#endif // EBS_TESTS_ASTAR_REFERENCE_H
