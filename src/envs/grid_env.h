#ifndef EBS_ENVS_GRID_ENV_H
#define EBS_ENVS_GRID_ENV_H

#include <cstdint>
#include <memory>
#include <vector>

#include "env/env.h"
#include "envs/free_space_labels.h"
#include "sim/rng.h"

namespace ebs::envs {

/**
 * Common base for grid-world environments: A* motion planning and shared
 * spawn/query helpers. Concrete domains add their objects, tasks, oracle
 * subgoals, and domain primitives on top.
 */
class GridEnvironment : public env::Environment
{
  public:
    /**
     * Motion via A* (adjacent-arrival); returns -1 when unreachable.
     * Once a search has failed, free-space labels answer every later
     * query whose goal the start's free space cannot reach with -1 and
     * no search (see FreeSpaceLabels); every other query runs
     * plan::aStar.
     */
    double motionCost(const env::Vec2i &from, const env::Vec2i &to,
                      std::vector<env::Vec2i> *path) const override;

    env::PathWork
    pathWork() const override
    {
        env::PathWork work = path_work_;
        work.labelled_cells = labels_.labelledCells();
        return work;
    }

    /**
     * The base applyDomain rejects every domain op without mutating
     * anything, so hallucinated domain primitives are speculation-safe
     * here. Subclasses whose domain rules mutate env-local state (craft
     * inventories, lift votes) must override back to false; subclasses
     * whose domain rules only mutate world() entities (kitchen) inherit
     * true and stay speculable.
     */
    bool domainOpsSpeculationSafe() const override { return true; }

  protected:
    explicit GridEnvironment(env::GridMap grid);

    /** Domain ops are invalid unless a subclass overrides. */
    env::ActionResult applyDomain(int agent_id,
                                  const env::Primitive &prim) override;

    /** A uniformly random walkable cell of a room, drawn from its cells
     * in row-major order; throws std::invalid_argument when the room has
     * none (a negative id names no room). */
    env::Vec2i randomFreeCellInRoom(int room, sim::Rng &rng) const;

    /** A uniformly random walkable cell anywhere; throws
     * std::invalid_argument when the grid has none. */
    env::Vec2i randomFreeCell(sim::Rng &rng) const;

    /** All objects of a class. */
    std::vector<env::ObjectId> objectsOfClass(env::ObjectClass cls) const;

    /** Spawn `count` agents at random free cells (distinct where possible). */
    void spawnAgents(int count, sim::Rng &rng);

  private:
    /** motionCost's label cache and tallies. Mutable because motionCost
     * is a const query; unsynchronized because an environment belongs to
     * one episode, which runs on one thread. */
    mutable FreeSpaceLabels labels_;
    mutable env::PathWork path_work_;
    /** randomFreeCellInRoom's table: per room id, its walkable cells in
     * row-major order, built at grid version room_cells_version_ and
     * rebuilt once the version moves (empty until the first call).
     * Mutable and unsynchronized for the same reason as labels_. */
    mutable std::vector<std::vector<env::Vec2i>> room_cells_;
    mutable std::uint64_t room_cells_version_ = 0;
};

} // namespace ebs::envs

#endif // EBS_ENVS_GRID_ENV_H
