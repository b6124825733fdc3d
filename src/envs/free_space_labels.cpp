#include "envs/free_space_labels.h"

#include <algorithm>
#include <cassert>

namespace ebs::envs {

bool
FreeSpaceLabels::sealed(const env::GridMap &grid,
                        const std::vector<env::AgentBody> &bodies,
                        const env::Vec2i &from, const env::Vec2i &to)
{
    if (label_.empty())
        return false;
    sync(grid, bodies);
    if (!grid.walkable(from) || !grid.inBounds(to) ||
        env::chebyshev(from, to) <= 1)
        return false;
    std::int32_t ids[4];
    const int n = reachable(grid, from, ids);
    if (n < 0)
        return false;
    // A failed A* expands exactly `from` plus these components, and it
    // succeeds once it expands a cell of the goal's 3x3 neighbourhood.
    for (int y = to.y - 1; y <= to.y + 1; ++y) {
        for (int x = to.x - 1; x <= to.x + 1; ++x) {
            const env::Vec2i cell{x, y};
            if (!grid.inBounds(cell))
                continue;
            const std::int32_t id = componentOf(index(cell));
            if (id >= 0 && std::find(ids, ids + n, id) != ids + n)
                return false;
        }
    }
    return true;
}

void
FreeSpaceLabels::readProbes(const env::GridMap &grid,
                            const env::Vec2i &from,
                            env::spec::AccessLog &log) const
{
    for (const env::Vec2i &d : env::kNeighborOffsets)
        if (grid.walkable(from + d))
            log.readCell(from + d);
    std::int32_t ids[4];
    const int n = reachable(grid, from, ids);
    assert(n >= 0);
    for (int k = 0; k < n; ++k) {
        const Component &comp = components_[static_cast<std::size_t>(ids[k])];
        for (std::size_t i = comp.first; i < comp.first + comp.count; ++i)
            log.readCell(probes_[i]);
    }
}

long long
FreeSpaceLabels::fillAround(const env::GridMap &grid,
                            const std::vector<env::AgentBody> &bodies,
                            const env::Vec2i &from)
{
    sync(grid, bodies);
    long long cells = 0;
    for (const env::Vec2i &d : env::kNeighborOffsets) {
        const env::Vec2i q = from + d;
        if (grid.inBounds(q) && label_[index(q)] != kBlocked &&
            componentOf(index(q)) < 0)
            cells += flood(grid, q);
    }
    return cells;
}

void
FreeSpaceLabels::reset(const env::GridMap &grid,
                       const std::vector<env::AgentBody> &bodies)
{
    width_ = grid.width();
    height_ = grid.height();
    version_ = grid.version();
    const std::size_t cells = static_cast<std::size_t>(width_) *
                              static_cast<std::size_t>(height_);
    label_.assign(cells, kUnknown);
    for (int y = 0; y < height_; ++y)
        for (int x = 0; x < width_; ++x)
            if (!grid.walkable({x, y}))
                label_[index({x, y})] = kBlocked;
    bodies_on_.assign(cells, 0);
    seen_.clear();
    for (const env::AgentBody &body : bodies) {
        seen_.push_back(body.pos);
        if (grid.inBounds(body.pos)) {
            ++bodies_on_[index(body.pos)];
            label_[index(body.pos)] = kBlocked;
        }
    }
    components_.clear();
    probes_.clear();
    flooded_ = 0;
    probed_at_.assign(cells, 0);
    flood_epoch_ = 0;
}

void
FreeSpaceLabels::sync(const env::GridMap &grid,
                      const std::vector<env::AgentBody> &bodies)
{
    if (label_.empty() || grid.version() != version_ ||
        grid.width() != width_ || grid.height() != height_ ||
        bodies.size() < seen_.size() ||
        flooded_ > kFloodsPerReset * label_.size()) {
        reset(grid, bodies);
        return;
    }
    touched_.clear();
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        const env::Vec2i now = bodies[i].pos;
        if (i == seen_.size()) {
            seen_.push_back(now);
            moveBody(grid, now, +1);
        } else if (!(seen_[i] == now)) {
            moveBody(grid, seen_[i], -1);
            moveBody(grid, now, +1);
            seen_[i] = now;
        }
    }
    // Only a cell's net change matters: a body that left a cell another
    // body then entered changed nothing.
    for (const env::Vec2i &p : touched_) {
        const std::size_t cell = index(p);
        const bool blocked = !grid.walkable(p) || bodies_on_[cell] > 0;
        if (blocked == (label_[cell] == kBlocked))
            continue;
        if (blocked) {
            const std::int32_t id = componentOf(cell);
            if (id >= 0)
                components_[static_cast<std::size_t>(id)].valid = false;
            label_[cell] = kBlocked;
        } else {
            label_[cell] = kUnknown;
            for (const env::Vec2i &d : env::kNeighborOffsets) {
                const env::Vec2i q = p + d;
                if (!grid.inBounds(q))
                    continue;
                const std::int32_t id = componentOf(index(q));
                if (id >= 0)
                    components_[static_cast<std::size_t>(id)].valid = false;
            }
        }
    }
}

void
FreeSpaceLabels::moveBody(const env::GridMap &grid, const env::Vec2i &p,
                          int delta)
{
    if (!grid.inBounds(p))
        return;
    bodies_on_[index(p)] += delta;
    touched_.push_back(p);
}

int
FreeSpaceLabels::reachable(const env::GridMap &grid, const env::Vec2i &from,
                           std::int32_t (&ids)[4]) const
{
    int n = 0;
    for (const env::Vec2i &d : env::kNeighborOffsets) {
        const env::Vec2i q = from + d;
        if (!grid.inBounds(q) || label_[index(q)] == kBlocked)
            continue;
        const std::int32_t id = componentOf(index(q));
        if (id < 0)
            return -1;
        if (std::find(ids, ids + n, id) == ids + n)
            ids[n++] = id;
    }
    return n;
}

long long
FreeSpaceLabels::flood(const env::GridMap &grid, const env::Vec2i &seed)
{
    const auto id = static_cast<std::int32_t>(components_.size());
    Component comp;
    comp.first = probes_.size();
    if (++flood_epoch_ == 0) {
        std::fill(probed_at_.begin(), probed_at_.end(), 0);
        flood_epoch_ = 1;
    }
    queue_.assign(1, seed);
    label_[index(seed)] = id;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        const env::Vec2i p = queue_[head];
        for (const env::Vec2i &d : env::kNeighborOffsets) {
            const env::Vec2i q = p + d;
            if (!grid.walkable(q))
                continue;
            const std::size_t qi = index(q);
            if (probed_at_[qi] != flood_epoch_) {
                probed_at_[qi] = flood_epoch_;
                probes_.push_back(q);
            }
            if (label_[qi] == kBlocked || label_[qi] == id)
                continue;
            // A free cell next to this component is in it, so no valid
            // label can be here.
            assert(componentOf(qi) < 0);
            label_[qi] = id;
            queue_.push_back(q);
        }
    }
    comp.count = probes_.size() - comp.first;
    components_.push_back(comp);
    flooded_ += queue_.size();
    return static_cast<long long>(queue_.size());
}

} // namespace ebs::envs
