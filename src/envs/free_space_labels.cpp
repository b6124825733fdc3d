#include "envs/free_space_labels.h"

#include <algorithm>
#include <cassert>

namespace ebs::envs {

namespace {

/** The 8-ring around a cell in cyclic order; even entries are its
 * 4-neighbours. Consecutive entries are 4-adjacent to each other. */
constexpr env::Vec2i kRing[8] = {{0, -1}, {1, -1}, {1, 0},  {1, 1},
                                 {0, 1},  {-1, 1}, {-1, 0}, {-1, -1}};

} // namespace

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
    const int n = reachable(from, ids);
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
    std::int32_t ids[4];
    const int n = reachable(from, ids);
    assert(n >= 0);
    auto reached = [&](const env::Vec2i &p) {
        if (!open(p))
            return false;
        const std::int32_t id = componentOf(index(p));
        return id >= 0 && std::find(ids, ids + n, id) != ids + n;
    };
    for (const env::Vec2i &cell : log.writtenCells()) {
        if (!grid.walkable(cell))
            continue;
        bool probed = env::manhattan(cell, from) == 1 || reached(cell);
        if (!probed && bodies_on_[index(cell)] > 0)
            for (const env::Vec2i &d : env::kNeighborOffsets)
                probed = probed || reached(cell + d);
        if (probed)
            log.readCell(cell);
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
        if (open(q) && componentOf(index(q)) < 0)
            cells += flood(q);
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
    slot_.assign(cells, 0);
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
    labelled_ = 0;
}

void
FreeSpaceLabels::sync(const env::GridMap &grid,
                      const std::vector<env::AgentBody> &bodies)
{
    if (label_.empty() || grid.version() != version_ ||
        grid.width() != width_ || grid.height() != height_ ||
        bodies.size() < seen_.size() ||
        labelled_ > kFloodsPerReset * label_.size()) {
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
    // body then entered changed nothing. Each change is applied to the
    // labels as they stand after the ones before it.
    for (const env::Vec2i &p : touched_) {
        const std::size_t cell = index(p);
        const bool blocked = !grid.walkable(p) || bodies_on_[cell] > 0;
        if (blocked == (label_[cell] == kBlocked))
            continue;
        if (blocked)
            blockCell(p);
        else
            freeCell(p);
    }
#ifndef NDEBUG
    checkMembers();
#endif
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

void
FreeSpaceLabels::freeCell(const env::Vec2i &p)
{
    std::int32_t ids[4];
    int n = 0;
    bool unlabelled = false;
    for (const env::Vec2i &d : env::kNeighborOffsets) {
        const env::Vec2i q = p + d;
        if (!open(q))
            continue;
        const std::int32_t id = componentOf(index(q));
        if (id < 0)
            unlabelled = true;
        else if (std::find(ids, ids + n, id) == ids + n)
            ids[n++] = id;
    }
    if (unlabelled) {
        // The cell joins a component that is not (fully) labelled.
        for (int k = 0; k < n; ++k)
            invalidate(ids[k]);
        label_[index(p)] = kUnknown;
        return;
    }
    if (n == 0) {
        const std::int32_t id = newComponent();
        addMember(id, p);
        ++labelled_;
        return;
    }
    // The cell joins its neighbours' components into one: relabel the
    // smaller ones into the largest.
    std::int32_t into = ids[0];
    for (int k = 1; k < n; ++k)
        if (components_[static_cast<std::size_t>(ids[k])].members.size() >
            components_[static_cast<std::size_t>(into)].members.size())
            into = ids[k];
    for (int k = 0; k < n; ++k) {
        if (ids[k] == into)
            continue;
        for (const env::Vec2i &cell :
             components_[static_cast<std::size_t>(ids[k])].members)
            addMember(into, cell);
        invalidate(ids[k]);
    }
    addMember(into, p);
}

void
FreeSpaceLabels::blockCell(const env::Vec2i &p)
{
    const std::size_t cell = index(p);
    const std::int32_t id = componentOf(cell);
    label_[cell] = kBlocked;
    if (id < 0)
        return; // no valid component borders an unlabelled cell
    // O(1) removal: the last member takes the cell's slot.
    std::vector<env::Vec2i> &members =
        components_[static_cast<std::size_t>(id)].members;
    const std::int32_t slot = slot_[cell];
    const env::Vec2i last = members.back();
    members[static_cast<std::size_t>(slot)] = last;
    slot_[index(last)] = slot;
    members.pop_back();
    if (!simplePoint(p))
        invalidate(id);
}

bool
FreeSpaceLabels::simplePoint(const env::Vec2i &p) const
{
    bool free_at[8];
    int start = -1;
    for (int k = 0; k < 8; ++k) {
        free_at[k] = open(p + kRing[k]);
        if (!free_at[k] && start < 0)
            start = k;
    }
    if (start < 0)
        return true; // the whole ring is free
    // Walk the ring from a blocked cell, counting the runs of free cells
    // that hold a 4-neighbour.
    int runs = 0;
    bool in_run = false;
    bool counted = false;
    for (int i = 1; i <= 8; ++i) {
        const int k = (start + i) % 8;
        if (!free_at[k]) {
            in_run = false;
            continue;
        }
        if (!in_run) {
            in_run = true;
            counted = false;
        }
        if (k % 2 == 0 && !counted) {
            counted = true;
            ++runs;
        }
    }
    return runs <= 1;
}

void
FreeSpaceLabels::addMember(std::int32_t id, const env::Vec2i &p)
{
    std::vector<env::Vec2i> &members =
        components_[static_cast<std::size_t>(id)].members;
    const std::size_t cell = index(p);
    label_[cell] = id;
    slot_[cell] = static_cast<std::int32_t>(members.size());
    members.push_back(p);
}

void
FreeSpaceLabels::invalidate(std::int32_t id)
{
    Component &comp = components_[static_cast<std::size_t>(id)];
    comp.valid = false;
    std::vector<env::Vec2i>().swap(comp.members);
}

std::int32_t
FreeSpaceLabels::newComponent()
{
    components_.emplace_back();
    return static_cast<std::int32_t>(components_.size() - 1);
}

int
FreeSpaceLabels::reachable(const env::Vec2i &from,
                           std::int32_t (&ids)[4]) const
{
    int n = 0;
    for (const env::Vec2i &d : env::kNeighborOffsets) {
        const env::Vec2i q = from + d;
        if (!open(q))
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
FreeSpaceLabels::flood(const env::Vec2i &seed)
{
    const std::int32_t id = newComponent();
    // The member list doubles as the BFS queue.
    const std::vector<env::Vec2i> &members = components_.back().members;
    addMember(id, seed);
    for (std::size_t head = 0; head < members.size(); ++head) {
        const env::Vec2i p = members[head];
        for (const env::Vec2i &d : env::kNeighborOffsets) {
            const env::Vec2i q = p + d;
            if (!open(q) || label_[index(q)] == id)
                continue;
            // A free cell next to this component is in it, so no valid
            // label can be here.
            assert(componentOf(index(q)) < 0);
            addMember(id, q);
        }
    }
    labelled_ += members.size();
    return static_cast<long long>(members.size());
}

#ifndef NDEBUG
void
FreeSpaceLabels::checkMembers() const
{
    std::size_t members = 0;
    for (std::size_t id = 0; id < components_.size(); ++id) {
        const Component &comp = components_[id];
        if (!comp.valid)
            continue;
        members += comp.members.size();
        for (std::size_t k = 0; k < comp.members.size(); ++k) {
            const std::size_t cell = index(comp.members[k]);
            assert(label_[cell] == static_cast<std::int32_t>(id));
            assert(slot_[cell] == static_cast<std::int32_t>(k));
        }
    }
    // Each member was matched to its own cell above, so equal counts
    // leave no labelled cell outside its component's list.
    std::size_t labelled = 0;
    for (std::size_t cell = 0; cell < label_.size(); ++cell)
        if (componentOf(cell) >= 0)
            ++labelled;
    assert(labelled == members);
}
#endif

} // namespace ebs::envs
