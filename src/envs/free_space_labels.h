#ifndef EBS_ENVS_FREE_SPACE_LABELS_H
#define EBS_ENVS_FREE_SPACE_LABELS_H

#include <cstdint>
#include <vector>

#include "env/grid.h"
#include "env/spec.h"
#include "env/world.h"

namespace ebs::envs {

/**
 * Connected-component labels of a grid's free space, kept as an exact
 * unreachability oracle for GridEnvironment::motionCost. This is the
 * cluster-connectivity idea of HPA* (Botea, Müller & Schaeffer, J. Game
 * Development 2004), used only to reject: paths are never abstracted, so
 * every path still comes from plan::aStar.
 *
 * A cell is free when it is walkable and no body stands on it. Each cell
 * is blocked (a wall or a body), unknown, or carries a component id; a
 * component stays valid while its cell set is still exactly one connected
 * component of the free space. Each valid component keeps its member
 * list, and each member its slot in that list.
 *
 * Labels depend only on the current free set, not on how bodies got
 * there, so each query diffs the body positions against the ones last
 * seen and applies each cell's net change in place:
 *  - a freed cell joins the component of its free 4-neighbours, merges
 *    them when they carry several ids (the smaller ones are relabelled
 *    into the largest), or starts a one-cell component when it has none;
 *    when a free 4-neighbour is unlabelled, their components are
 *    invalidated and the cell stays unlabelled;
 *  - a newly blocked cell leaves its component, which stays valid when
 *    the cell is a simple point (Rosenfeld, J. ACM 1970): its free
 *    4-neighbours lie in one run of free cells around its 8-ring, so
 *    they stay joined without it. Otherwise the component is invalidated.
 * A change of GridMap::version() or of the grid's size resets every
 * label. Ids are never reused, so the tables grow with every flood and
 * every new one-cell component; once those since the last reset have
 * labelled kFloodsPerReset times the grid's cell count, the next sync
 * resets too. That caps the tables at kFloodsPerReset ids per cell, and
 * the O(cells) reset costs a 1 / kFloodsPerReset share of the labelling
 * work it follows.
 *
 * Nothing is labelled until the first fillAround(), so an environment
 * whose searches never fail pays nothing.
 */
class FreeSpaceLabels
{
  public:
    /**
     * True when no path from `from` reaches a cell adjacent (chebyshev
     * <= 1) to `to` through free cells — exactly when plan::aStar with
     * adjacent_ok and every body not on `from` blocked returns no path.
     * Brings the labels up to date with `grid` and `bodies` first.
     * False when the labels cannot decide: before the first
     * fillAround(), when `from` is off the grid or a wall, `to` is off
     * the grid, chebyshev(from, to) <= 1, or a free 4-neighbour of
     * `from` is unlabelled.
     */
    bool sealed(const env::GridMap &grid,
                const std::vector<env::AgentBody> &bodies,
                const env::Vec2i &from, const env::Vec2i &to);

    /**
     * Log, as occupancy reads, the cells the failed A* from `from` would
     * have probed that `log` holds as written in the current phase (no
     * other read can mark the turn conflicted). A probed cell is
     * walkable and either a 4-neighbour of `from`, a member of one of
     * their components, or holds a body 4-adjacent to such a member (a
     * walkable cell that is not free holds a body). Call only right
     * after sealed() returned true for `from`, with the bodies unmoved.
     */
    void readProbes(const env::GridMap &grid, const env::Vec2i &from,
                    env::spec::AccessLog &log) const;

    /**
     * After an A* from `from` expanded at least one node and found no
     * path: label every unlabelled component of `from`'s free
     * 4-neighbours (the first call starts the labels). Returns the number
     * of cells labelled.
     */
    long long fillAround(const env::GridMap &grid,
                         const std::vector<env::AgentBody> &bodies,
                         const env::Vec2i &from);

  private:
    static constexpr std::int32_t kBlocked = -1;
    static constexpr std::int32_t kUnknown = -2;
    static constexpr std::size_t kFloodsPerReset = 16;

    /** A component's cells, and whether its labels hold (an invalid
     * component's member list is released). */
    struct Component
    {
        std::vector<env::Vec2i> members;
        bool valid = true;
    };

    std::size_t
    index(const env::Vec2i &p) const
    {
        return static_cast<std::size_t>(p.y) *
                   static_cast<std::size_t>(width_) +
               static_cast<std::size_t>(p.x);
    }

    /** The valid component id of a cell, or -1 (blocked or unknown). */
    std::int32_t
    componentOf(std::size_t cell) const
    {
        const std::int32_t id = label_[cell];
        return id >= 0 && components_[static_cast<std::size_t>(id)].valid
                   ? id
                   : -1;
    }

    /** Whether a cell is on the grid and not blocked. */
    bool
    open(const env::Vec2i &p) const
    {
        return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_ &&
               label_[index(p)] != kBlocked;
    }

    /** Label every cell blocked or unknown from scratch. */
    void reset(const env::GridMap &grid,
               const std::vector<env::AgentBody> &bodies);

    /** Apply the body moves since the last call (reset when needed). */
    void sync(const env::GridMap &grid,
              const std::vector<env::AgentBody> &bodies);

    /** Count a body arriving at (+1) or leaving (-1) `p`. */
    void moveBody(const env::GridMap &grid, const env::Vec2i &p, int delta);

    /** Apply a blocked cell turning free. */
    void freeCell(const env::Vec2i &p);

    /** Apply a free cell turning blocked. */
    void blockCell(const env::Vec2i &p);

    /** Whether blocking free `p` keeps its free 4-neighbours joined: they
     * lie in one run of open cells around its cyclic 8-ring. */
    bool simplePoint(const env::Vec2i &p) const;

    /** Append a cell to a component, recording its slot. */
    void addMember(std::int32_t id, const env::Vec2i &p);

    /** Drop a component's labels and release its member list. */
    void invalidate(std::int32_t id);

    /** A new valid component with no members; returns its id. */
    std::int32_t newComponent();

    /**
     * The distinct component ids of `from`'s free 4-neighbours into
     * `ids`; returns how many, or -1 when one of them is unlabelled.
     */
    int reachable(const env::Vec2i &from, std::int32_t (&ids)[4]) const;

    /** Label the free component of `seed` with a new id; returns its
     * cell count. */
    long long flood(const env::Vec2i &seed);

#ifndef NDEBUG
    /** Every valid component's members carry its id at their slots, and
     * every cell with a valid id is a member. */
    void checkMembers() const;
#endif

    int width_ = 0;
    int height_ = 0;
    std::uint64_t version_ = 0;
    /** Per cell: kBlocked, kUnknown, or a component id (stale once that
     * component is invalid). Empty until the first fillAround(). */
    std::vector<std::int32_t> label_;
    /** Per cell with a valid id: its index in that component's members. */
    std::vector<std::int32_t> slot_;
    /** Per cell: how many bodies stood there at the last sync. */
    std::vector<std::int32_t> bodies_on_;
    /** Body positions at the last sync, in body order. */
    std::vector<env::Vec2i> seen_;
    /** Cells whose body count changed in the current sync. */
    std::vector<env::Vec2i> touched_;
    std::vector<Component> components_;
    /** Cells labelled by floods and new one-cell components since the
     * last reset. */
    std::size_t labelled_ = 0;
};

} // namespace ebs::envs

#endif // EBS_ENVS_FREE_SPACE_LABELS_H
