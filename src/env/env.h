#ifndef EBS_ENV_ENV_H
#define EBS_ENV_ENV_H

#include <cstdint>
#include <vector>

#include "env/action.h"
#include "env/observation.h"
#include "env/subgoal.h"
#include "env/task.h"
#include "env/world.h"

namespace ebs::env {

/** Path-query work of one environment since it was built: exact counts,
 * the same at any EBS_JOBS (see GridEnvironment::motionCost). */
struct PathWork
{
    long long queries = 0;         ///< motionCost calls
    long long searches = 0;        ///< plan::aStar calls
    long long failed = 0;          ///< searches that found no path
    long long fast_rejections = 0; ///< queries the labels answered with -1
    long long expanded = 0;        ///< A* nodes expanded, over all searches
    /** Cells given a free-space component id by a flood (the labels'
     * start or a reset), a split or a merge. */
    long long labelled_cells = 0;
};

/**
 * Base class for embodied environments.
 *
 * An environment owns the ground-truth world and the task instance, applies
 * primitives (spatial ops via World, domain ops via applyDomain), produces
 * partial egocentric observations, and exposes a *task oracle*: the set of
 * subgoals that would advance the task right now. The oracle is what lets
 * the LLM capability model act mechanically — a "good" planning call picks a
 * useful subgoal the agent knows about; a bad one picks a merely-valid or
 * invalid subgoal, and the consequences play out in the world for real.
 */
class Environment
{
  public:
    virtual ~Environment() = default;

    /** The ground-truth world. */
    World &world() { return world_; }
    const World &world() const { return world_; }

    /**
     * Whether the speculative execute model applies to this environment
     * at all. Environments whose motion planning consumes order-dependent
     * mutable state no access-log slot names (ManipulationEnv's shared RRT
     * stream) must opt out; their execute phase then tallies nothing.
     */
    virtual bool speculativeExecuteSafe() const { return true; }

    /**
     * Whether this environment's domain primitives (Chop/Cook/...) are
     * covered by the access log, i.e. applyDomain routes every access
     * through world() accessors and touches no env-local state. The base
     * default is conservative (false): a domain primitive during a logged
     * execute turn then flags the turn aborted (the op still applies).
     * Environments adding env-local domain state (inventories, lift
     * votes) must keep — or restore — the false override.
     */
    virtual bool domainOpsSpeculationSafe() const { return false; }

    /** The task instance, set by the concrete environment. */
    const Task &task() const { return task_; }

    /** Partial observation for one agent (default: current-room view). */
    virtual Observation observe(int agent_id, int step) const;

    /** Hook called at the start of each global step (clears lift votes...). */
    virtual void beginStep() {}

    /** Apply one primitive for an agent. */
    ActionResult applyPrimitive(int agent_id, const Primitive &prim);

    /**
     * Oracle: subgoals that advance the task for this agent right now,
     * computed from ground truth. Empty when the task is finished or the
     * agent cannot contribute.
     */
    virtual std::vector<Subgoal> usefulSubgoals(int agent_id) const = 0;

    /**
     * All subgoals the agent could validly attempt right now, including
     * wasteful ones (used to sample suboptimal plans).
     */
    virtual std::vector<Subgoal> validSubgoals(int agent_id) const = 0;

    /**
     * Low-level motion cost from `from` adjacent-to/onto `to`, in grid
     * steps; fills `path` with the cell sequence when non-null. Returns a
     * negative value when unreachable. Implemented by concrete environments
     * (grid A* or continuous RRT).
     */
    virtual double motionCost(const Vec2i &from, const Vec2i &to,
                              std::vector<Vec2i> *path) const = 0;

    /** What motionCost did so far (zeros where it does no grid search). */
    virtual PathWork pathWork() const { return {}; }

    /**
     * A representative walkable cell of a room (used as the Explore
     * navigation target). Returns {-1,-1} when the room has no free cell.
     * Answers from the anchor table setTask built while the grid is
     * unchanged since then; otherwise (or for a room outside the table)
     * runs scanRoomAnchor.
     */
    env::Vec2i roomAnchor(int room) const;

  protected:
    /** Construct with the world grid; the task is installed by the concrete
     * environment once the world is populated (object ids are then known). */
    explicit Environment(GridMap grid);

    /** Install the task instance and build the room anchor table — so
     * it must be the last construction step, after any grid carving. */
    void setTask(Task task);

    /** Apply a domain primitive (Chop/Cook/Craft/Mine/Lift). */
    virtual ActionResult applyDomain(int agent_id, const Primitive &prim) = 0;

    World world_;
    Task task_;

  private:
    /** roomAnchorTable(world_.grid()), valid while the grid's version
     * equals anchors_version_. Written only during construction, so const
     * readers on pool threads never race with it. */
    std::vector<Vec2i> anchors_;
    std::uint64_t anchors_version_ = 0;
};

/**
 * Reference room-anchor scan: the walkable interior cell of `room` (no
 * 4-neighbor labeled with another room) closest to the grid center, first
 * in row-major order on ties; the first walkable cell of the room when it
 * has no interior cell; {-1,-1} when it has none at all.
 */
Vec2i scanRoomAnchor(const GridMap &grid, int room);

/** scanRoomAnchor for every room in [0, grid.roomCount()), in one grid
 * pass. */
std::vector<Vec2i> roomAnchorTable(const GridMap &grid);

} // namespace ebs::env

#endif // EBS_ENV_ENV_H
