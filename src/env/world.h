#ifndef EBS_ENV_WORLD_H
#define EBS_ENV_WORLD_H

#include <vector>

#include "env/action.h"
#include "env/grid.h"
#include "env/object.h"
#include "env/spec.h"

namespace ebs::env {

/** Embodied state of one agent body. */
struct AgentBody
{
    int id = -1;
    Vec2i pos;
    ObjectId carrying = kNoObject; ///< single-object gripper
    bool lifting = false;          ///< currently part of a joint lift
};

/**
 * Ground-truth world state: grid + objects + agent bodies, with validated
 * application of the *spatial* primitives (movement, grasping, containers).
 * Domain primitives (Chop/Cook/Craft/Mine/Lift) are validated and applied by
 * the owning Environment, which knows the domain rules.
 */
class World
{
  public:
    explicit World(GridMap grid);

    /** Not copyable: there is one ground-truth world per environment,
     * and a copy would alias its access log. */
    World(const World &) = delete;
    World &operator=(const World &) = delete;
    World(World &&) = default;
    World &operator=(World &&) = default;

    const GridMap &grid() const { return grid_; }

    GridMap &
    grid()
    {
        // Grid topology is construction-time state; a mutation during a
        // logged turn would be invisible to the access log.
        if (log_ != nullptr)
            log_->abort();
        return grid_;
    }

    // --- construction ---

    /** Add an object; assigns and returns its id. Snaps `room` from grid. */
    ObjectId addObject(Object obj);

    /** Add an agent body at a position; returns its id. */
    int addAgent(const Vec2i &pos);

    // --- access ---

    const Object &object(ObjectId id) const;
    Object &object(ObjectId id);

    /** Whole-table scan: under an access log this reads *every* object
     * (the log's whole-table slot, which any object write stamps). */
    const std::vector<Object> &
    objects() const
    {
        if (log_ != nullptr)
            log_->readAllObjects();
        return objects_;
    }

    const AgentBody &agent(int id) const;
    AgentBody &agent(int id);
    int agentCount() const { return static_cast<int>(agents_.size()); }

    /**
     * Raw agent-body table, deliberately *not* access-logged: for callers
     * (motion cost) that derive per-cell occupancy and log the precise
     * cell-occupancy reads themselves instead of a read of every agent.
     */
    const std::vector<AgentBody> &bodies() const { return agents_; }

    /** Ids of loose objects currently in the given room. */
    std::vector<ObjectId> objectsInRoom(int room) const;

    /** Ids of objects held inside the given container. */
    std::vector<ObjectId> contents(ObjectId container) const;

    /** Current position of an object, following holder/container chains. */
    Vec2i effectivePos(ObjectId id) const;

    /**
     * Apply a spatial primitive for an agent. Returns failure for domain
     * ops (Chop/Cook/Craft/Mine/Lift) — those belong to the Environment.
     */
    ActionResult applySpatial(int agent_id, const Primitive &prim);

    /** True if any agent other than `agent_id` stands on `cell`. */
    bool occupiedByOther(int agent_id, const Vec2i &cell) const;

    /**
     * Attach (or detach, with nullptr) a speculative-execution access
     * log, sized to this world: every accessor call on this world reports
     * into it until detached. The coordinator attaches it for each
     * execute turn of a speculated phase; a read of state an earlier turn
     * of the phase wrote marks the turn conflicted.
     */
    void
    setAccessLog(spec::AccessLog *log)
    {
        log_ = log;
        coverLog();
    }
    spec::AccessLog *accessLog() const { return log_; }

  private:
    /** Size the attached log's slot tables to the current world. */
    void
    coverLog()
    {
        if (log_ != nullptr)
            log_->cover(objects_.size(), agents_.size(), grid_.width(),
                        grid_.height());
    }

    ActionResult doMoveStep(AgentBody &agent, const Primitive &prim);
    ActionResult doPick(AgentBody &agent, const Primitive &prim);
    ActionResult doPlace(AgentBody &agent, const Primitive &prim);
    ActionResult doPutIn(AgentBody &agent, const Primitive &prim);
    ActionResult doTakeOut(AgentBody &agent, const Primitive &prim);
    ActionResult doOpenClose(AgentBody &agent, const Primitive &prim,
                             bool open);

    GridMap grid_;
    std::vector<Object> objects_;
    std::vector<AgentBody> agents_;
    /** Active speculation access log; null outside logged turns. */
    spec::AccessLog *log_ = nullptr;
};

} // namespace ebs::env

#endif // EBS_ENV_WORLD_H
