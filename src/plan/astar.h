#ifndef EBS_PLAN_ASTAR_H
#define EBS_PLAN_ASTAR_H

#include <optional>
#include <vector>

#include "env/geom.h"
#include "env/grid.h"

namespace ebs::plan {

/** Result of a grid path query. */
struct GridPath
{
    std::vector<env::Vec2i> cells; ///< start..goal inclusive
    double cost = 0.0;             ///< number of unit moves
};

/**
 * A* path on a GridMap (4-connected, unit edge cost). Without
 * `adjacent_ok` the heuristic is the Manhattan distance, admissible and
 * consistent, so the path is a shortest one. With `adjacent_ok` it is
 * max(0, manhattan - 1), still consistent but 1 at the goal's diagonal
 * neighbours where the remaining cost is 0, so the path is at most one
 * step longer than a shortest one (e.g. (1,1) -> (3,3) on an open grid
 * costs 3, not 2).
 *
 * This is the real low-level planner used by the execution module
 * (substituting the A-star controllers of CoELA / COHERENT / DaDu-E); its
 * compute cost is part of the execution-module latency story.
 *
 * @param adjacent_ok when true, reaching any cell adjacent (chebyshev <= 1)
 *                    to the goal counts as arrival — the common case for
 *                    interacting with objects that sit on furniture.
 * @param blocked     extra temporarily-untraversable cells (other agents'
 *                    positions); may be null, may repeat cells, and may
 *                    name cells out of bounds (those are ignored). Each
 *                    call stamps them once into a per-thread occupancy
 *                    grid, so a neighbour probe costs O(1) whatever the
 *                    number of bodies.
 * @param queried     when non-null, appended with each cell whose blocked
 *                    status the search consulted, once per call, in
 *                    first-probe order (speculative execution logs these
 *                    as occupancy reads: the search result can only
 *                    change if one of *these* cells changes, so they are
 *                    exactly the path query's occupancy read set).
 * @return nullopt when no path exists.
 */
std::optional<GridPath> aStar(const env::GridMap &grid,
                              const env::Vec2i &start,
                              const env::Vec2i &goal,
                              bool adjacent_ok = false,
                              const std::vector<env::Vec2i> *blocked =
                                  nullptr,
                              std::vector<env::Vec2i> *queried = nullptr);

/** Cells expanded by the most recent aStar call on this thread (for perf
 * tests and the microbench). */
std::size_t aStarLastExpanded();

} // namespace ebs::plan

#endif // EBS_PLAN_ASTAR_H
