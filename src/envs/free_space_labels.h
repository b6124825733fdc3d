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
 * A cell is free when it is walkable and no body stands on it. Once the
 * labels have started, each cell is blocked (a wall or a body) or carries
 * the id of its component, whose cell set is exactly one connected
 * component of the free space. Each component keeps its member list, and
 * each member its slot in that list.
 *
 * Labels depend only on the current free set, not on how bodies got
 * there, so each query diffs the body positions against the ones last
 * seen and applies each cell's net change in place:
 *  - a freed cell joins the component of its free 4-neighbours, merges
 *    them when they carry several ids (the smaller ones are relabelled
 *    into the largest), or starts a one-cell component when it has none;
 *  - a newly blocked cell leaves its component, which stays connected
 *    when the cell is a simple point (Rosenfeld, J. ACM 1970): its free
 *    4-neighbours lie in one run of free cells around its 8-ring, so they
 *    stay joined without it. Otherwise one breadth-first search per run
 *    walks the component in lockstep, one cell per search per round, and
 *    searches that touch are joined (Even & Shiloach, J. ACM 1981). When
 *    all are joined nothing changes; once every group of searches but
 *    one has run out of cells, each such group is a component of its own
 *    and moves to a new id. The cost is at most the number of runs times
 *    the size of the smaller side.
 * A change of GridMap::version() or of the grid's size relabels every
 * free cell. Ids are never reused, so the tables grow with every split
 * and every new one-cell component; once those since the last reset
 * have labelled kRelabelsPerReset times the grid's cell count, the next
 * sync relabels too. That caps the tables at kRelabelsPerReset ids per
 * cell, and the O(cells) reset costs a 1 / kRelabelsPerReset share of
 * the labelling work it follows.
 *
 * Nothing is labelled until start(), so an environment whose searches
 * never fail pays nothing.
 */
class FreeSpaceLabels
{
  public:
    /**
     * True when no path from `from` reaches a cell adjacent (chebyshev
     * <= 1) to `to` through free cells — exactly when plan::aStar with
     * adjacent_ok and every body not on `from` blocked returns no path.
     * Brings the labels up to date with `grid` and `bodies` first.
     * False when the labels cannot decide: before start(), when `from` is
     * off the grid or a wall, `to` is off the grid, or chebyshev(from,
     * to) <= 1.
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
     * Start the labels by labelling every free cell (nothing happens
     * when they have started already); call after an A* expanded at
     * least one node and found no path.
     */
    void start(const env::GridMap &grid,
               const std::vector<env::AgentBody> &bodies);

    /** Cells given a component id by a flood (the start or a reset), a
     * split or a merge, since construction. */
    long long labelledCells() const { return labelled_cells_; }

  private:
    static constexpr std::int32_t kBlocked = -1;
    /** A free cell not yet reached by reset()'s floods. */
    static constexpr std::int32_t kUnlabelled = -2;
    static constexpr std::size_t kRelabelsPerReset = 16;

    /** One of split()'s breadth-first searches: the cells it reached
     * (which double as its queue), the next one to expand, and the
     * group of searches it has touched, named by its lowest member. */
    struct Search
    {
        std::vector<env::Vec2i> cells;
        std::size_t head = 0;
        int group = 0;

        bool open() const { return head < cells.size(); }
    };

    std::size_t
    index(const env::Vec2i &p) const
    {
        return static_cast<std::size_t>(p.y) *
                   static_cast<std::size_t>(width_) +
               static_cast<std::size_t>(p.x);
    }

    /** Whether a cell is on the grid and not blocked. */
    bool
    open(const env::Vec2i &p) const
    {
        return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_ &&
               label_[index(p)] != kBlocked;
    }

    /** Label every free cell from scratch. */
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

    /**
     * The runs of open cells around `p`'s cyclic 8-ring that hold one of
     * its 4-neighbours: one such 4-neighbour per run into `seeds`;
     * returns the number of runs. `p` is a simple point when it is at
     * most 1.
     */
    int ringRuns(const env::Vec2i &p, env::Vec2i (&seeds)[4]) const;

    /** After blocking a non-simple point of component `id`: split off
     * each side that is no longer joined to the rest, seeded by one
     * cell per ring run. */
    void split(std::int32_t id, const env::Vec2i (&seeds)[4], int runs);

    /** Append a cell to a component, recording its slot. */
    void addMember(std::int32_t id, const env::Vec2i &p);

    /** Remove a labelled cell from its component in O(1): the last
     * member takes its slot. */
    void removeMember(std::size_t cell);

    /** A new component with no members; returns its id. */
    std::int32_t newComponent();

    /** The distinct component ids of `from`'s free 4-neighbours into
     * `ids`; returns how many. */
    int reachable(const env::Vec2i &from, std::int32_t (&ids)[4]) const;

    /** Label the unlabelled free component of `seed` with a new id. */
    void flood(const env::Vec2i &seed);

#ifndef NDEBUG
    /** Every free cell of `grid` is labelled and every blocked one is
     * not, every component's members carry its id at their slots, and
     * free 4-neighbours share an id. */
    void checkMembers(const env::GridMap &grid) const;
#endif

    int width_ = 0;
    int height_ = 0;
    std::uint64_t version_ = 0;
    /** Per cell: kBlocked or a component id. Empty until start(). */
    std::vector<std::int32_t> label_;
    /** Per labelled cell: its index in that component's members. */
    std::vector<std::int32_t> slot_;
    /** Per cell: how many bodies stood there at the last sync. */
    std::vector<std::int32_t> bodies_on_;
    /** Body positions at the last sync, in body order. */
    std::vector<env::Vec2i> seen_;
    /** Cells whose body count changed in the current sync. */
    std::vector<env::Vec2i> touched_;
    /** Per component id: its cells (empty once merged away or emptied). */
    std::vector<std::vector<env::Vec2i>> members_;
    /** Cells labelled with a new id (by splits and new one-cell
     * components) since the last reset. */
    std::size_t labelled_ = 0;
    /** Running total behind labelledCells(). */
    long long labelled_cells_ = 0;
    /** split()'s searches, and per cell the split and search that last
     * reached it, packed as stamp * 4 + search: a stamp older than
     * stamp_ means unreached in the current split. */
    Search searches_[4];
    std::vector<std::uint32_t> reached_;
    std::uint32_t stamp_ = 0;
};

} // namespace ebs::envs

#endif // EBS_ENVS_FREE_SPACE_LABELS_H
