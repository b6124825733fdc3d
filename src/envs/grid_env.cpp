#include "envs/grid_env.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "plan/astar.h"

namespace ebs::envs {

namespace {

/** motionCost's A* inputs and outputs, reused by every call on this
 * thread (cleared at the start of each call, so no state crosses
 * calls). */
struct QueryCells
{
    std::vector<env::Vec2i> blocked;
    std::vector<env::Vec2i> queried;
};

thread_local QueryCells query_cells;

} // namespace

GridEnvironment::GridEnvironment(env::GridMap grid)
    : env::Environment(std::move(grid))
{
}

double
GridEnvironment::motionCost(const env::Vec2i &from, const env::Vec2i &to,
                            std::vector<env::Vec2i> *path) const
{
    // Other agents' bodies are temporary obstacles; the requesting agent
    // is identified by standing at `from`. Positions come from the raw
    // body table rather than logged agent reads — logging a read of every
    // agent would conflict a path query with *any* mover. Instead A*
    // reports the cells whose blocked status it consulted and those are
    // logged as per-cell occupancy reads: the search result can only
    // change if one of them changes.
    const env::World &w = world();
    env::spec::AccessLog *log = w.accessLog();
    ++path_work_.queries;
    if (labels_.sealed(w.grid(), w.bodies(), from, to)) {
        // Read the cells the failed search would have probed, of those
        // written earlier in the phase (no other read can conflict).
        ++path_work_.fast_rejections;
        if (log != nullptr)
            labels_.readProbes(w.grid(), from, *log);
        return -1.0;
    }
    std::vector<env::Vec2i> &blocked = query_cells.blocked;
    blocked.clear();
    for (const env::AgentBody &body : w.bodies())
        if (!(body.pos == from))
            blocked.push_back(body.pos);
    std::vector<env::Vec2i> &queried = query_cells.queried;
    queried.clear();
    auto result =
        plan::aStar(w.grid(), from, to,
                    /*adjacent_ok=*/true, &blocked,
                    log != nullptr ? &queried : nullptr);
    ++path_work_.searches;
    path_work_.expanded += static_cast<long long>(plan::aStarLastExpanded());
    if (log != nullptr)
        for (const env::Vec2i &cell : queried)
            log->readCell(cell);
    if (!result) {
        ++path_work_.failed;
        if (plan::aStarLastExpanded() > 0)
            labels_.start(w.grid(), w.bodies());
        return -1.0;
    }
    if (path != nullptr)
        *path = std::move(result->cells);
    return result->cost;
}

env::ActionResult
GridEnvironment::applyDomain(int, const env::Primitive &)
{
    return env::ActionResult::failure("domain op not supported here");
}

env::Vec2i
GridEnvironment::randomFreeCellInRoom(int room, sim::Rng &rng) const
{
    const env::GridMap &grid = world_.grid();
    if (room_cells_.empty() || room_cells_version_ != grid.version()) {
        // roomCount() is one past the largest label, so never 0.
        room_cells_.assign(static_cast<std::size_t>(grid.roomCount()), {});
        for (int y = 0; y < grid.height(); ++y) {
            for (int x = 0; x < grid.width(); ++x) {
                const int r = grid.room({x, y});
                if (grid.walkable({x, y}) && r >= 0)
                    room_cells_[static_cast<std::size_t>(r)].push_back({x, y});
            }
        }
        room_cells_version_ = grid.version();
    }
    if (room < 0 || static_cast<std::size_t>(room) >= room_cells_.size() ||
        room_cells_[static_cast<std::size_t>(room)].empty())
        throw std::invalid_argument("randomFreeCellInRoom: room " +
                                    std::to_string(room) +
                                    " has no free cell");
    return rng.pick(room_cells_[static_cast<std::size_t>(room)]);
}

env::Vec2i
GridEnvironment::randomFreeCell(sim::Rng &rng) const
{
    const env::GridMap &grid = world_.grid();
    for (int attempts = 0; attempts < 10000; ++attempts) {
        const env::Vec2i p{rng.uniformInt(0, grid.width() - 1),
                           rng.uniformInt(0, grid.height() - 1)};
        if (grid.walkable(p))
            return p;
    }
    // Rejection sampling kept missing: draw from the exact list instead.
    std::vector<env::Vec2i> cells;
    for (int y = 0; y < grid.height(); ++y)
        for (int x = 0; x < grid.width(); ++x)
            if (grid.walkable({x, y}))
                cells.push_back({x, y});
    if (cells.empty())
        throw std::invalid_argument(
            "randomFreeCell: the " + std::to_string(grid.width()) + "x" +
            std::to_string(grid.height()) + " grid has no walkable cell");
    return rng.pick(cells);
}

std::vector<env::ObjectId>
GridEnvironment::objectsOfClass(env::ObjectClass cls) const
{
    std::vector<env::ObjectId> out;
    for (const auto &obj : world_.objects())
        if (obj.cls == cls)
            out.push_back(obj.id);
    return out;
}

void
GridEnvironment::spawnAgents(int count, sim::Rng &rng)
{
    for (int i = 0; i < count; ++i) {
        env::Vec2i cell = randomFreeCell(rng);
        for (int tries = 0; tries < 100 && world_.occupiedByOther(-1, cell);
             ++tries)
            cell = randomFreeCell(rng);
        world_.addAgent(cell);
    }
}

void
GridEnvironment::appendExploreAndWait(std::vector<env::Subgoal> &out) const
{
    for (int room = 0; room < world_.grid().roomCount(); ++room) {
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::Explore;
        sg.dest = roomAnchor(room);
        sg.param = room;
        out.push_back(sg);
    }
    env::Subgoal wait;
    wait.kind = env::SubgoalKind::Wait;
    out.push_back(wait);
}

} // namespace ebs::envs
