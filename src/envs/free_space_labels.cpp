#include "envs/free_space_labels.h"

#include <algorithm>
#include <cassert>

namespace ebs::envs {

namespace {

/** The 8-ring around a cell in cyclic order; even entries are its
 * 4-neighbours. Consecutive entries are 4-adjacent to each other. */
constexpr env::Vec2i kRing[8] = {{0, -1}, {1, -1}, {1, 0},  {1, 1},
                                 {0, 1},  {-1, 1}, {-1, 0}, {-1, -1}};

/** The largest split stamp that still leaves room for a search index in
 * the low two bits of a 32-bit mark. */
constexpr std::uint32_t kMaxStamp = 0xffffffffu >> 2;

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
    // A failed A* expands exactly `from` plus these components, and it
    // succeeds once it expands a cell of the goal's 3x3 neighbourhood.
    for (int y = to.y - 1; y <= to.y + 1; ++y) {
        for (int x = to.x - 1; x <= to.x + 1; ++x) {
            const env::Vec2i cell{x, y};
            if (!grid.inBounds(cell))
                continue;
            const std::int32_t id = label_[index(cell)];
            if (std::find(ids, ids + n, id) != ids + n)
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
    auto reached = [&](const env::Vec2i &p) {
        return open(p) &&
               std::find(ids, ids + n, label_[index(p)]) != ids + n;
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

void
FreeSpaceLabels::start(const env::GridMap &grid,
                       const std::vector<env::AgentBody> &bodies)
{
    if (label_.empty())
        reset(grid, bodies);
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
    label_.assign(cells, kUnlabelled);
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
    members_.clear();
    labelled_ = 0;
    reached_.assign(cells, 0);
    stamp_ = 0;
    for (int y = 0; y < height_; ++y)
        for (int x = 0; x < width_; ++x)
            if (label_[index({x, y})] == kUnlabelled)
                flood({x, y});
#ifndef NDEBUG
    checkMembers(grid);
#endif
}

void
FreeSpaceLabels::sync(const env::GridMap &grid,
                      const std::vector<env::AgentBody> &bodies)
{
    if (grid.version() != version_ || grid.width() != width_ ||
        grid.height() != height_ || bodies.size() < seen_.size() ||
        labelled_ > kRelabelsPerReset * label_.size()) {
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
    checkMembers(grid);
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
    const int n = reachable(p, ids);
    if (n == 0) {
        addMember(newComponent(), p);
        ++labelled_;
        return;
    }
    // The cell joins its neighbours' components into one: relabel the
    // smaller ones into the largest.
    std::int32_t into = ids[0];
    for (int k = 1; k < n; ++k)
        if (members_[static_cast<std::size_t>(ids[k])].size() >
            members_[static_cast<std::size_t>(into)].size())
            into = ids[k];
    for (int k = 0; k < n; ++k) {
        if (ids[k] == into)
            continue;
        std::vector<env::Vec2i> &merged =
            members_[static_cast<std::size_t>(ids[k])];
        for (const env::Vec2i &cell : merged)
            addMember(into, cell);
        labelled_cells_ += static_cast<long long>(merged.size());
        std::vector<env::Vec2i>().swap(merged);
    }
    addMember(into, p);
}

void
FreeSpaceLabels::blockCell(const env::Vec2i &p)
{
    const std::size_t cell = index(p);
    const std::int32_t id = label_[cell];
    removeMember(cell);
    label_[cell] = kBlocked;
    env::Vec2i seeds[4];
    const int runs = ringRuns(p, seeds);
    if (runs > 1)
        split(id, seeds, runs);
}

int
FreeSpaceLabels::ringRuns(const env::Vec2i &p, env::Vec2i (&seeds)[4]) const
{
    bool free_at[8];
    int start = -1;
    for (int k = 0; k < 8; ++k) {
        free_at[k] = open(p + kRing[k]);
        if (!free_at[k] && start < 0)
            start = k;
    }
    if (start < 0) { // the whole ring is free
        seeds[0] = p + kRing[0];
        return 1;
    }
    // Walk the ring from a blocked cell, keeping the first 4-neighbour
    // of each run of free cells that holds one.
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
            seeds[runs++] = p + kRing[k];
        }
    }
    return runs;
}

void
FreeSpaceLabels::split([[maybe_unused]] std::int32_t id,
                       const env::Vec2i (&seeds)[4], int runs)
{
    if (++stamp_ > kMaxStamp) {
        std::fill(reached_.begin(), reached_.end(), 0u);
        stamp_ = 1;
    }
    for (int s = 0; s < runs; ++s) {
        Search &search = searches_[s];
        search.cells.assign(1, seeds[s]);
        search.head = 0;
        search.group = s;
        reached_[index(seeds[s])] = stamp_ * 4 + static_cast<std::uint32_t>(s);
    }
    auto join = [&](int a, int b) {
        const int ga = searches_[a].group;
        const int gb = searches_[b].group;
        for (int s = 0; s < runs; ++s)
            if (searches_[s].group == std::max(ga, gb))
                searches_[s].group = std::min(ga, gb);
    };
    int keep = -1;
    // Only a join or a search running out of cells can end the walk, so
    // the groups are recounted only after one.
    bool changed = true;
    for (;;) {
        if (changed) {
            bool present[4] = {false, false, false, false};
            bool live[4] = {false, false, false, false};
            for (int s = 0; s < runs; ++s) {
                present[searches_[s].group] = true;
                live[searches_[s].group] =
                    live[searches_[s].group] || searches_[s].open();
            }
            int groups = 0;
            int live_groups = 0;
            int live_group = -1;
            for (int g = 0; g < runs; ++g) {
                groups += present[g] ? 1 : 0;
                if (live[g]) {
                    ++live_groups;
                    live_group = g;
                }
            }
            if (groups == 1)
                return; // the component is still connected
            if (live_groups <= 1) {
                keep = live_group;
                break;
            }
            changed = false;
        }
        for (int s = 0; s < runs; ++s) {
            Search &search = searches_[s];
            if (!search.open())
                continue;
            const env::Vec2i p = search.cells[search.head++];
            for (const env::Vec2i &d : env::kNeighborOffsets) {
                const env::Vec2i q = p + d;
                if (!open(q))
                    continue;
                // A free cell next to the component is in it.
                assert(label_[index(q)] == id);
                std::uint32_t &mark = reached_[index(q)];
                if (mark >> 2 != stamp_) {
                    mark = stamp_ * 4 + static_cast<std::uint32_t>(s);
                    search.cells.push_back(q);
                } else if (searches_[mark & 3].group != search.group) {
                    join(s, static_cast<int>(mark & 3));
                    changed = true;
                }
            }
            changed = changed || !search.open();
        }
    }
    // Every group that ran out of cells holds a whole side. The one still
    // searching (else the largest) keeps the id; each other side moves to
    // a new one.
    std::size_t size[4] = {0, 0, 0, 0};
    for (int s = 0; s < runs; ++s)
        size[searches_[s].group] += searches_[s].cells.size();
    if (keep < 0)
        for (int g = 0; g < runs; ++g)
            if (keep < 0 || size[g] > size[keep])
                keep = g;
    for (int g = 0; g < runs; ++g) {
        if (g == keep || size[g] == 0)
            continue;
        const std::int32_t side = newComponent();
        for (int s = 0; s < runs; ++s) {
            if (searches_[s].group != g)
                continue;
            for (const env::Vec2i &cell : searches_[s].cells) {
                removeMember(index(cell));
                addMember(side, cell);
            }
        }
        labelled_ += size[g];
        labelled_cells_ += static_cast<long long>(size[g]);
    }
}

void
FreeSpaceLabels::addMember(std::int32_t id, const env::Vec2i &p)
{
    std::vector<env::Vec2i> &members =
        members_[static_cast<std::size_t>(id)];
    const std::size_t cell = index(p);
    label_[cell] = id;
    slot_[cell] = static_cast<std::int32_t>(members.size());
    members.push_back(p);
}

void
FreeSpaceLabels::removeMember(std::size_t cell)
{
    std::vector<env::Vec2i> &members =
        members_[static_cast<std::size_t>(label_[cell])];
    const std::int32_t slot = slot_[cell];
    const env::Vec2i last = members.back();
    members[static_cast<std::size_t>(slot)] = last;
    slot_[index(last)] = slot;
    members.pop_back();
}

std::int32_t
FreeSpaceLabels::newComponent()
{
    members_.emplace_back();
    return static_cast<std::int32_t>(members_.size() - 1);
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
        const std::int32_t id = label_[index(q)];
        if (std::find(ids, ids + n, id) == ids + n)
            ids[n++] = id;
    }
    return n;
}

void
FreeSpaceLabels::flood(const env::Vec2i &seed)
{
    const std::int32_t id = newComponent();
    // The member list doubles as the BFS queue.
    const std::vector<env::Vec2i> &members = members_.back();
    addMember(id, seed);
    for (std::size_t head = 0; head < members.size(); ++head) {
        const env::Vec2i p = members[head];
        for (const env::Vec2i &d : env::kNeighborOffsets) {
            const env::Vec2i q = p + d;
            if (open(q) && label_[index(q)] == kUnlabelled)
                addMember(id, q);
        }
    }
    labelled_cells_ += static_cast<long long>(members.size());
}

#ifndef NDEBUG
void
FreeSpaceLabels::checkMembers(const env::GridMap &grid) const
{
    std::size_t members = 0;
    std::vector<char> visited(label_.size(), 0);
    for (std::size_t id = 0; id < members_.size(); ++id) {
        const std::vector<env::Vec2i> &list = members_[id];
        members += list.size();
        for (std::size_t k = 0; k < list.size(); ++k) {
            const std::size_t cell = index(list[k]);
            assert(label_[cell] == static_cast<std::int32_t>(id));
            assert(slot_[cell] == static_cast<std::int32_t>(k));
        }
        if (list.empty())
            continue;
        // Connected: a walk from the first member reaches every member.
        std::vector<env::Vec2i> queue{list.front()};
        visited[index(list.front())] = 1;
        for (std::size_t head = 0; head < queue.size(); ++head)
            for (const env::Vec2i &d : env::kNeighborOffsets) {
                const env::Vec2i q = queue[head] + d;
                if (open(q) && !visited[index(q)] &&
                    label_[index(q)] == static_cast<std::int32_t>(id)) {
                    visited[index(q)] = 1;
                    queue.push_back(q);
                }
            }
        assert(queue.size() == list.size());
    }
    // Each member was matched to its own cell above, so equal counts
    // leave no labelled cell outside its component's list. Maximal: free
    // 4-neighbours share an id.
    std::size_t labelled = 0;
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            const env::Vec2i p{x, y};
            const std::size_t cell = index(p);
            const bool free = grid.walkable(p) && bodies_on_[cell] == 0;
            assert(free == (label_[cell] >= 0));
            if (!free)
                continue;
            ++labelled;
            for (const env::Vec2i &d : env::kNeighborOffsets)
                assert(!open(p + d) || label_[index(p + d)] == label_[cell]);
        }
    }
    assert(labelled == members);
}
#endif

} // namespace ebs::envs
