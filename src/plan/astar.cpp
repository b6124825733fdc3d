#include "plan/astar.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>

namespace ebs::plan {

namespace {

thread_local std::size_t last_expanded = 0;

/**
 * An open-list entry. `key` packs f into the high 32 bits and ~g into the
 * low 32, so comparing keys as integers orders entries by f and breaks
 * ties on larger g (deeper nodes first, for faster goal pops) — the order
 * of the reference comparator `f != o.f ? f > o.f : g < o.g`. The cell's
 * coordinates ride along so a pop needs no division.
 */
struct Node
{
    std::uint64_t key;
    int x;
    int y;

    static Node
    make(int f, int g, const env::Vec2i &p)
    {
        return {(static_cast<std::uint64_t>(static_cast<std::uint32_t>(f))
                 << 32) |
                    static_cast<std::uint32_t>(~static_cast<std::uint32_t>(g)),
                p.x, p.y};
    }

    int g() const { return static_cast<int>(~static_cast<std::uint32_t>(key)); }

    bool operator>(const Node &o) const { return key > o.key; }
};

/**
 * What a search knows about one cell. A field holds for the current call
 * only when its stamp equals the call's epoch: `g` and `parent` when
 * `seen` does, blocked when `blocked` does, and already reported to
 * `queried` when `queried` does. Bumping the epoch retires every earlier
 * call's fields at once, so a call writes only the cells it probes.
 */
struct CellRecord
{
    std::int32_t g;
    std::int32_t parent;
    std::uint32_t seen;
    std::uint32_t blocked;
    std::uint32_t queried;
};

/**
 * Search buffers reused by every aStar call on this thread. The open list
 * is a binary heap driven by std::push_heap / std::pop_heap with the same
 * ordering std::priority_queue would use, so pops come out in exactly the
 * same order. The records are cleared only when the epoch wraps to 0.
 */
struct Scratch
{
    std::vector<CellRecord> cells;
    std::vector<Node> open;
    std::uint32_t epoch = 0;

    /** Start a call on an n-cell grid: a fresh epoch no stamp carries. */
    std::uint32_t
    nextEpoch(std::size_t n)
    {
        if (cells.size() < n)
            cells.resize(n, CellRecord{});
        if (++epoch == 0) {
            std::fill(cells.begin(), cells.end(), CellRecord{});
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
    const std::size_t n = static_cast<std::size_t>(w) * grid.height();
    const std::uint32_t epoch = scratch.nextEpoch(n);
    std::vector<CellRecord> &cells = scratch.cells;
    std::vector<Node> &open = scratch.open;
    open.clear();
    const std::greater<Node> later;
    auto push = [&](const Node &node) {
        open.push_back(node);
        std::push_heap(open.begin(), open.end(), later);
    };

    auto index = [&](const env::Vec2i &p) {
        return static_cast<std::size_t>(p.y) * static_cast<std::size_t>(w) +
               static_cast<std::size_t>(p.x);
    };
    if (blocked != nullptr)
        for (const env::Vec2i &b : *blocked)
            if (grid.inBounds(b))
                cells[index(b)].blocked = epoch;
    auto heuristic = [&](const env::Vec2i &p) {
        const int d = env::manhattan(p, goal);
        return adjacent_ok ? std::max(0, d - 1) : d;
    };

    CellRecord &origin = cells[index(start)];
    origin.g = 0;
    origin.parent = -1;
    origin.seen = epoch;
    push(Node::make(heuristic(start), 0, start));

    while (!open.empty()) {
        std::pop_heap(open.begin(), open.end(), later);
        const Node cur = open.back();
        open.pop_back();
        const env::Vec2i p{cur.x, cur.y};
        const std::size_t pi = index(p);
        const int g = cur.g();
        if (g > cells[pi].g)
            continue; // stale heap entry
        ++last_expanded;

        if (at_goal(p)) {
            // g unit moves: the path has g + 1 cells, filled goal first.
            GridPath path;
            path.cost = g;
            path.cells.resize(static_cast<std::size_t>(g) + 1);
            std::int32_t idx = static_cast<std::int32_t>(pi);
            for (std::size_t k = path.cells.size(); k-- > 0;) {
                path.cells[k] = {idx % w, idx / w};
                idx = cells[static_cast<std::size_t>(idx)].parent;
            }
            // The heuristic is consistent, so an expanded cell's g is
            // final and every parent link is exactly one step.
            assert(idx < 0);
            return path;
        }

        // GridMap::neighbors, without its per-call vector.
        for (const auto &d : env::kNeighborOffsets) {
            const env::Vec2i q = p + d;
            if (!grid.walkable(q))
                continue;
            CellRecord &rec = cells[index(q)];
            if (queried != nullptr && rec.queried != epoch) {
                rec.queried = epoch;
                queried->push_back(q);
            }
            if (rec.blocked == epoch)
                continue;
            const int ng = g + 1;
            if (rec.seen != epoch || ng < rec.g) {
                rec.seen = epoch;
                rec.g = ng;
                rec.parent = static_cast<std::int32_t>(pi);
                push(Node::make(ng + heuristic(q), ng, q));
            }
        }
    }
    return std::nullopt;
}

} // namespace ebs::plan
