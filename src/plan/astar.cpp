#include "plan/astar.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ebs::plan {

namespace {

thread_local std::size_t last_expanded = 0;

static_assert(env::kNeighborOffsets[0] == env::Vec2i{1, 0} &&
                  env::kNeighborOffsets[1] == env::Vec2i{-1, 0} &&
                  env::kNeighborOffsets[2] == env::Vec2i{0, 1} &&
                  env::kNeighborOffsets[3] == env::Vec2i{0, -1},
              "aStar probes neighbours by index in this order");

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
 * Move the hole at `hole` up towards `top` past every parent that pops
 * later than `value`, then put `value` there: libstdc++'s __push_heap
 * under std::greater, step for step.
 */
void
siftUp(Node *heap, std::size_t hole, std::size_t top, const Node &value)
{
    while (hole > top) {
        const std::size_t parent = (hole - 1) / 2;
        if (!(heap[parent].key > value.key))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = value;
}

/** std::push_heap(..., std::greater<Node>()) after a push_back. */
void
heapPush(std::vector<Node> &heap, const Node &node)
{
    heap.push_back(node);
    siftUp(heap.data(), heap.size() - 1, 0, node);
}

/**
 * Remove and return the earliest entry, as std::pop_heap with
 * std::greater<Node> followed by pop_back: libstdc++'s __pop_heap and
 * __adjust_heap step for step. The root's hole sinks to a leaf along the
 * earlier child (the right one on equal keys), takes the lone left child
 * at an even-length tail, and the last entry sifts up from there. Equal
 * keys therefore pop in the same order as from std::priority_queue.
 */
Node
heapPop(std::vector<Node> &heap)
{
    const Node top = heap.front();
    const Node value = heap.back();
    heap.pop_back();
    const std::size_t len = heap.size();
    if (len == 0)
        return top;
    Node *first = heap.data();
    std::size_t hole = 0;
    std::size_t child = 0;
    while (child < (len - 1) / 2) {
        child = 2 * (child + 1);
        child -= static_cast<std::size_t>(first[child].key >
                                          first[child - 1].key);
        first[hole] = first[child];
        hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
        child = 2 * (child + 1);
        first[hole] = first[child - 1];
        hole = child - 1;
    }
    siftUp(first, hole, 0, value);
    return top;
}

/**
 * Search buffers reused by every aStar call on this thread. The open list
 * is a binary heap kept by heapPush / heapPop, which order it exactly as
 * std::priority_queue would, so pops come out in exactly the same order.
 * The records are cleared only when the epoch wraps to 0.
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
    const int h = grid.height();
    const std::size_t row = static_cast<std::size_t>(w);
    const std::size_t n = row * static_cast<std::size_t>(h);
    const std::uint8_t *walkable = grid.walkableRows();
    const std::uint32_t epoch = scratch.nextEpoch(n);
    std::vector<CellRecord> &cells = scratch.cells;
    std::vector<Node> &open = scratch.open;
    open.clear();

    auto index = [&](const env::Vec2i &p) {
        return static_cast<std::size_t>(p.y) * row +
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
    heapPush(open, Node::make(heuristic(start), 0, start));

    while (!open.empty()) {
        const Node cur = heapPop(open);
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

        auto probe = [&](const env::Vec2i &q, std::size_t qi) {
            CellRecord &rec = cells[qi];
            if (queried != nullptr && rec.queried != epoch) {
                rec.queried = epoch;
                queried->push_back(q);
            }
            if (rec.blocked == epoch)
                return;
            const int ng = g + 1;
            if (rec.seen != epoch || ng < rec.g) {
                rec.seen = epoch;
                rec.g = ng;
                rec.parent = static_cast<std::int32_t>(pi);
                heapPush(open, Node::make(ng + heuristic(q), ng, q));
            }
        };
        // GridMap::neighbors' walkable 4-neighbours in kNeighborOffsets
        // order, probed by index with one bounds test each.
        if (p.x + 1 < w && walkable[pi + 1] != 0)
            probe({p.x + 1, p.y}, pi + 1);
        if (p.x > 0 && walkable[pi - 1] != 0)
            probe({p.x - 1, p.y}, pi - 1);
        if (p.y + 1 < h && walkable[pi + row] != 0)
            probe({p.x, p.y + 1}, pi + row);
        if (p.y > 0 && walkable[pi - row] != 0)
            probe({p.x, p.y - 1}, pi - row);
    }
    return std::nullopt;
}

} // namespace ebs::plan
