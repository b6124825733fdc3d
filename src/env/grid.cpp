#include "env/grid.h"

#include <stdexcept>
#include <string>

namespace ebs::env {

namespace {

/** Cell count of a width x height grid; throws unless both are > 0. */
std::size_t
checkedArea(int width, int height)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument(
            "GridMap: width and height must be > 0, got " +
            std::to_string(width) + "x" + std::to_string(height));
    return static_cast<std::size_t>(width) *
           static_cast<std::size_t>(height);
}

} // namespace

GridMap::GridMap(int width, int height)
    : width_(width), height_(height),
      walkable_(checkedArea(width, height), 1),
      room_(walkable_.size(), 0)
{
}

void
GridMap::requireInBounds(const Vec2i &p, const char *op) const
{
    if (!inBounds(p))
        throw std::out_of_range(
            std::string("GridMap::") + op + ": cell (" +
            std::to_string(p.x) + ", " + std::to_string(p.y) +
            ") is outside the " + std::to_string(width_) + "x" +
            std::to_string(height_) + " grid");
}

void
GridMap::setWalkable(const Vec2i &p, bool w)
{
    requireInBounds(p, "setWalkable");
    ++version_;
    walkable_[idx(p)] = w ? 1 : 0;
    if (!w)
        room_[idx(p)] = -1;
}

void
GridMap::setRoom(const Vec2i &p, int room)
{
    requireInBounds(p, "setRoom");
    ++version_;
    room_[idx(p)] = static_cast<std::int16_t>(room);
    if (room + 1 > room_count_)
        room_count_ = room + 1;
}

std::vector<Vec2i>
GridMap::neighbors(const Vec2i &p) const
{
    std::vector<Vec2i> out;
    out.reserve(4);
    for (const auto &d : kNeighborOffsets) {
        const Vec2i q = p + d;
        if (walkable(q))
            out.push_back(q);
    }
    return out;
}

GridMap
GridMap::apartment(int rooms_x, int rooms_y, int room_w, int room_h)
{
    const auto requireAtLeast = [](const char *name, int value, int min) {
        if (value < min)
            throw std::invalid_argument(
                std::string("GridMap::apartment: ") + name + " must be >= " +
                std::to_string(min) + ", got " + std::to_string(value));
    };
    requireAtLeast("rooms_x", rooms_x, 1);
    requireAtLeast("rooms_y", rooms_y, 1);
    requireAtLeast("room_w", room_w, 3);
    requireAtLeast("room_h", room_h, 3);

    // +1 wall between rooms and around the border.
    const int width = rooms_x * (room_w + 1) + 1;
    const int height = rooms_y * (room_h + 1) + 1;
    GridMap map(width, height);

    // Carve walls first: border and inter-room separators.
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const bool on_wall = x % (room_w + 1) == 0 || y % (room_h + 1) == 0;
            if (on_wall)
                map.setWalkable({x, y}, false);
        }
    }

    // Assign room labels to interiors.
    for (int ry = 0; ry < rooms_y; ++ry) {
        for (int rx = 0; rx < rooms_x; ++rx) {
            const int room_id = ry * rooms_x + rx;
            for (int y = 1; y <= room_h; ++y) {
                for (int x = 1; x <= room_w; ++x) {
                    map.setRoom({rx * (room_w + 1) + x, ry * (room_h + 1) + y},
                                room_id);
                }
            }
        }
    }

    // Doorways between horizontally adjacent rooms.
    for (int ry = 0; ry < rooms_y; ++ry) {
        for (int rx = 0; rx + 1 < rooms_x; ++rx) {
            const int wall_x = (rx + 1) * (room_w + 1);
            const int door_y = ry * (room_h + 1) + 1 + room_h / 2;
            const Vec2i door{wall_x, door_y};
            map.setWalkable(door, true);
            map.setRoom(door, ry * rooms_x + rx);
        }
    }
    // Doorways between vertically adjacent rooms.
    for (int ry = 0; ry + 1 < rooms_y; ++ry) {
        for (int rx = 0; rx < rooms_x; ++rx) {
            const int wall_y = (ry + 1) * (room_h + 1);
            const int door_x = rx * (room_w + 1) + 1 + room_w / 2;
            const Vec2i door{door_x, wall_y};
            map.setWalkable(door, true);
            map.setRoom(door, ry * rooms_x + rx);
        }
    }

    return map;
}

} // namespace ebs::env
