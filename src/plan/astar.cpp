#include "plan/astar.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace ebs::plan {

namespace {

thread_local std::size_t last_expanded = 0;

struct Node
{
    int f;
    int g;
    int idx;

    bool
    operator>(const Node &o) const
    {
        // Tie-break on larger g (deeper nodes first) for faster goal pops.
        return f != o.f ? f > o.f : g < o.g;
    }
};

/**
 * Search buffers reused by every aStar call on this thread (reset at the
 * start of each call, so no state crosses calls). The open list is a
 * binary heap driven by std::push_heap / std::pop_heap with the same
 * comparator std::priority_queue would use, so pops come out in exactly
 * the same order.
 *
 * `blocked_at` and `queried_at` are per-cell epoch stamps: a cell is
 * blocked in this call iff blocked_at[i] == epoch, and already reported
 * to `queried` iff queried_at[i] == epoch. Bumping the epoch retires
 * every earlier call's stamps at once, so neither array is cleared per
 * call — only when the epoch wraps to 0.
 */
struct Scratch
{
    std::vector<std::int32_t> g_score;
    std::vector<std::int32_t> parent;
    std::vector<Node> open;
    std::vector<std::uint32_t> blocked_at;
    std::vector<std::uint32_t> queried_at;
    std::uint32_t epoch = 0;

    /** Start a call on an n-cell grid: a fresh epoch no stamp carries. */
    std::uint32_t
    nextEpoch(std::size_t n)
    {
        if (blocked_at.size() < n) {
            blocked_at.resize(n, 0);
            queried_at.resize(n, 0);
        }
        if (++epoch == 0) {
            std::fill(blocked_at.begin(), blocked_at.end(), 0);
            std::fill(queried_at.begin(), queried_at.end(), 0);
            epoch = 1;
        }
        return epoch;
    }
};

thread_local Scratch scratch;

} // namespace

std::size_t
aStarLastExpanded()
{
    return last_expanded;
}

std::optional<GridPath>
aStar(const env::GridMap &grid, const env::Vec2i &start,
      const env::Vec2i &goal, bool adjacent_ok,
      const std::vector<env::Vec2i> *blocked,
      std::vector<env::Vec2i> *queried)
{
    last_expanded = 0;
    if (!grid.inBounds(start) || !grid.inBounds(goal))
        return std::nullopt;
    if (!grid.walkable(start))
        return std::nullopt;

    auto at_goal = [&](const env::Vec2i &p) {
        return adjacent_ok ? env::chebyshev(p, goal) <= 1 : p == goal;
    };
    if (at_goal(start))
        return GridPath{{start}, 0.0};

    const int w = grid.width();
    const int h = grid.height();
    const std::size_t n = static_cast<std::size_t>(w) * h;
    std::vector<std::int32_t> &g_score = scratch.g_score;
    std::vector<std::int32_t> &parent = scratch.parent;
    std::vector<Node> &open = scratch.open;
    g_score.assign(n, -1);
    parent.assign(n, -1);
    open.clear();
    std::vector<std::uint32_t> &blocked_at = scratch.blocked_at;
    std::vector<std::uint32_t> &queried_at = scratch.queried_at;
    const std::uint32_t epoch = scratch.nextEpoch(n);
    const std::greater<Node> later;
    auto push = [&](const Node &node) {
        open.push_back(node);
        std::push_heap(open.begin(), open.end(), later);
    };

    auto index = [&](const env::Vec2i &p) { return p.y * w + p.x; };
    if (blocked != nullptr)
        for (const env::Vec2i &b : *blocked)
            if (grid.inBounds(b))
                blocked_at[static_cast<std::size_t>(index(b))] = epoch;
    auto heuristic = [&](const env::Vec2i &p) {
        const int d = env::manhattan(p, goal);
        return adjacent_ok ? std::max(0, d - 1) : d;
    };

    g_score[static_cast<std::size_t>(index(start))] = 0;
    push({heuristic(start), 0, index(start)});

    while (!open.empty()) {
        std::pop_heap(open.begin(), open.end(), later);
        const Node cur = open.back();
        open.pop_back();
        const env::Vec2i p{cur.idx % w, cur.idx / w};
        if (cur.g > g_score[static_cast<std::size_t>(cur.idx)])
            continue; // stale heap entry
        ++last_expanded;

        if (at_goal(p)) {
            GridPath path;
            path.cost = cur.g;
            int idx = cur.idx;
            while (idx >= 0) {
                path.cells.push_back({idx % w, idx / w});
                idx = parent[static_cast<std::size_t>(idx)];
            }
            std::reverse(path.cells.begin(), path.cells.end());
            return path;
        }

        // GridMap::neighbors, without its per-call vector.
        for (const auto &d : env::kNeighborOffsets) {
            const env::Vec2i q = p + d;
            if (!grid.walkable(q))
                continue;
            const int qi = index(q);
            const auto qs = static_cast<std::size_t>(qi);
            if (queried != nullptr && queried_at[qs] != epoch) {
                queried_at[qs] = epoch;
                queried->push_back(q);
            }
            if (blocked_at[qs] == epoch)
                continue;
            const int ng = cur.g + 1;
            if (g_score[qs] < 0 || ng < g_score[qs]) {
                g_score[qs] = ng;
                parent[qs] = cur.idx;
                push({ng + heuristic(q), ng, qi});
            }
        }
    }
    return std::nullopt;
}

} // namespace ebs::plan
