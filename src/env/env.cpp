#include "env/env.h"

#include <cstdlib>
#include <utility>

namespace ebs::env {

const char *
difficultyName(Difficulty d)
{
    switch (d) {
      case Difficulty::Easy:
        return "easy";
      case Difficulty::Medium:
        return "medium";
      case Difficulty::Hard:
        return "hard";
    }
    return "?";
}

Environment::Environment(GridMap grid)
    : world_(std::move(grid))
{
}

void
Environment::setTask(Task task)
{
    task_ = std::move(task);
    anchors_ = roomAnchorTable(world_.grid());
    anchors_version_ = world_.grid().version();
}

Observation
Environment::observe(int agent_id, int step) const
{
    const AgentBody &body = world_.agent(agent_id);
    Observation obs;
    obs.agent_id = agent_id;
    obs.step = step;
    obs.self_pos = body.pos;
    obs.room = world_.grid().room(body.pos);
    obs.carrying = body.carrying != kNoObject;
    obs.carried = body.carrying;

    for (const auto &obj : world_.objects()) {
        // Visible if in the agent's room; contents of closed containers
        // stay hidden (the agent must open them to look inside).
        const Vec2i pos = world_.effectivePos(obj.id);
        if (world_.grid().room(pos) != obs.room)
            continue;
        if (obj.inside != kNoObject) {
            const Object &container = world_.object(obj.inside);
            if (container.openable && !container.open)
                continue;
        }
        ObservedObject seen;
        seen.id = obj.id;
        seen.cls = obj.cls;
        seen.kind = obj.kind;
        seen.state = obj.state;
        seen.pos = pos;
        seen.room = obs.room;
        seen.inside = obj.inside;
        seen.held_by = obj.held_by;
        seen.openable = obj.openable;
        seen.open = obj.open;
        obs.objects.push_back(seen);
    }
    return obs;
}

ActionResult
Environment::applyPrimitive(int agent_id, const Primitive &prim)
{
    switch (prim.op) {
      case PrimOp::Chop:
      case PrimOp::Cook:
      case PrimOp::Craft:
      case PrimOp::Mine:
      case PrimOp::Lift: {
        // Domain rules of this environment read/write env-local state no
        // access-log slot names, so a logged turn cannot be validated:
        // flag it aborted, then apply the op as usual.
        spec::AccessLog *log = world_.accessLog();
        if (log != nullptr && !domainOpsSpeculationSafe())
            log->abort();
        return applyDomain(agent_id, prim);
      }
      default:
        return world_.applySpatial(agent_id, prim);
    }
}

Vec2i
Environment::roomAnchor(int room) const
{
    const GridMap &grid = world_.grid();
    if (room >= 0 && static_cast<std::size_t>(room) < anchors_.size() &&
        anchors_version_ == grid.version())
        return anchors_[static_cast<std::size_t>(room)];
    return scanRoomAnchor(grid, room);
}

namespace {

/** A cell of `room` none of whose 4-neighbors carries another room label. */
bool
interiorOf(const GridMap &grid, const Vec2i &p, int room)
{
    for (const auto &d : kNeighborOffsets) {
        const int neighbor_room = grid.room(p + d);
        if (neighbor_room >= 0 && neighbor_room != room)
            return false;
    }
    return true;
}

/** Anchor preference: closeness to the grid center (higher is better). */
long
anchorScore(const GridMap &grid, const Vec2i &p)
{
    return -(std::abs(2 * p.x - grid.width()) +
             std::abs(2 * p.y - grid.height()));
}

} // namespace

Vec2i
scanRoomAnchor(const GridMap &grid, int room)
{
    // Prefer a central *interior* cell so exploration lands mid-room:
    // doorway cells carry a room label but border another room, and an
    // agent stopping adjacent to one may never actually enter.
    Vec2i best{-1, -1};
    long best_score = -1;
    for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
            const Vec2i p{x, y};
            if (!grid.walkable(p) || grid.room(p) != room)
                continue;
            if (!interiorOf(grid, p, room))
                continue;
            const long score = anchorScore(grid, p);
            if (best.x < 0 || score > best_score) {
                best = p;
                best_score = score;
            }
        }
    }
    if (best.x < 0) {
        // Degenerate room with no interior cell: fall back to any cell.
        for (int y = 0; y < grid.height() && best.x < 0; ++y)
            for (int x = 0; x < grid.width() && best.x < 0; ++x)
                if (grid.walkable({x, y}) && grid.room({x, y}) == room)
                    best = {x, y};
    }
    return best;
}

std::vector<Vec2i>
roomAnchorTable(const GridMap &grid)
{
    // The scan's two row-major passes per room, run for all rooms at once:
    // per room, the best interior cell and the first cell at all.
    const auto rooms = static_cast<std::size_t>(grid.roomCount());
    std::vector<Vec2i> best(rooms, Vec2i{-1, -1});
    std::vector<long> best_score(rooms, -1);
    std::vector<Vec2i> first(rooms, Vec2i{-1, -1});
    for (int y = 0; y < grid.height(); ++y) {
        for (int x = 0; x < grid.width(); ++x) {
            const Vec2i p{x, y};
            const int room = grid.room(p);
            if (room < 0 || !grid.walkable(p))
                continue;
            const auto r = static_cast<std::size_t>(room);
            if (first[r].x < 0)
                first[r] = p;
            if (!interiorOf(grid, p, room))
                continue;
            const long score = anchorScore(grid, p);
            if (best[r].x < 0 || score > best_score[r]) {
                best[r] = p;
                best_score[r] = score;
            }
        }
    }
    for (std::size_t r = 0; r < rooms; ++r)
        if (best[r].x < 0)
            best[r] = first[r];
    return best;
}

} // namespace ebs::env
