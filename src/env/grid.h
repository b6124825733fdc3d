#ifndef EBS_ENV_GRID_H
#define EBS_ENV_GRID_H

#include <cstdint>
#include <vector>

#include "env/geom.h"

namespace ebs::env {

/** 4-connected neighbor offsets, in the order GridMap::neighbors and the A*
 * search visit them (the order fixes A*'s tie-breaking, hence its paths). */
inline constexpr Vec2i kNeighborOffsets[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};

/**
 * 2-D occupancy grid with room labels.
 *
 * Rooms drive partial observability: an agent sees objects in its current
 * room only, mirroring the egocentric views of TDW / VirtualHome. Walls are
 * non-walkable cells; doorways connect rooms.
 */
class GridMap
{
  public:
    /** An all-walkable map of the given size, single room 0. Throws
     * std::invalid_argument unless width and height are both > 0. */
    GridMap(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }

    bool
    inBounds(const Vec2i &p) const
    {
        return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
    }

    bool
    walkable(const Vec2i &p) const
    {
        return inBounds(p) && walkable_[idx(p)] != 0;
    }

    /** Throws std::out_of_range for a cell outside the grid. */
    void setWalkable(const Vec2i &p, bool w);

    /** Room id of a cell (-1 for walls / out of bounds). */
    int
    room(const Vec2i &p) const
    {
        return inBounds(p) ? room_[idx(p)] : -1;
    }

    /** Throws std::out_of_range for a cell outside the grid. */
    void setRoom(const Vec2i &p, int room);

    /** Number of distinct room labels assigned so far. */
    int roomCount() const { return room_count_; }

    /**
     * Mutation counter: every setWalkable / setRoom bumps it, copies carry
     * it. Tables derived from the grid (Environment's room anchors) record
     * the version they were built at and are valid while it is unchanged.
     */
    std::uint64_t version() const { return version_; }

    /** 4-connected walkable neighbors of a cell. */
    std::vector<Vec2i> neighbors(const Vec2i &p) const;

    /**
     * Build a rooms_x by rooms_y apartment: each room is room_w x room_h
     * cells, separated by one-cell walls with a centered doorway between
     * horizontally and vertically adjacent rooms. Room ids are assigned in
     * row-major order. Throws std::invalid_argument naming the argument
     * unless both room counts are >= 1 and both room sizes >= 3.
     */
    static GridMap apartment(int rooms_x, int rooms_y, int room_w,
                             int room_h);

  private:
    std::size_t
    idx(const Vec2i &p) const
    {
        return static_cast<std::size_t>(p.y) * width_ + p.x;
    }

    void requireInBounds(const Vec2i &p, const char *op) const;

    int width_;
    int height_;
    int room_count_ = 1;
    std::uint64_t version_ = 0;
    std::vector<std::uint8_t> walkable_;
    std::vector<std::int16_t> room_;
};

} // namespace ebs::env

#endif // EBS_ENV_GRID_H
