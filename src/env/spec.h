#ifndef EBS_ENV_SPEC_H
#define EBS_ENV_SPEC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "env/geom.h"
#include "env/object.h"

namespace ebs::env::spec {

/**
 * Read-time conflict detection for the speculative execute phase.
 *
 * Every piece of world state an agent's execute() turn can observe or
 * mutate is one slot: an object, an agent body, the occupancy of one
 * grid cell, or the whole object table (the objects()/objectsInRoom/
 * contents scans). Each slot holds a stamp: the serial of the first turn
 * of the current phase that wrote it. Turns are numbered by beginTurn(),
 * and a phase is the run of turns since the last beginPhase(), so a
 * stamp below the phase's first serial is stale and means "unwritten".
 *
 * A read of a slot marks the turn conflicted when a lower-serial turn of
 * the same phase wrote it (stamp in [phase first, current turn)). The
 * turns run one after another, so this check at the moment of each read
 * decides exactly what intersecting the turn's whole read set with its
 * predecessors' write sets would. The stamp keeps the *first* writer: a
 * turn that writes object B and then scans the table must still see
 * that an earlier turn wrote object A, which a last-writer stamp on the
 * table slot would have overwritten with the turn's own serial.
 *
 * World accessors report into the log attached via World::setAccessLog(),
 * which also sizes the slot tables to the world (cover()).
 */
class AccessLog
{
  public:
    /** Grow the slot tables to a world of this size (never shrinks). */
    void cover(std::size_t objects, std::size_t agents, int width,
               int height);

    /** Start a new phase: every stamp written so far becomes stale. */
    void
    beginPhase()
    {
        phase_first_ = turn_ + 1;
        written_cells_.clear();
    }

    /** Start the next turn: a fresh serial, with no conflict or abort. */
    void
    beginTurn()
    {
        ++turn_;
        conflicted_ = false;
        aborted_ = false;
    }

    void readObject(ObjectId id) { read(objects_[slot(id)]); }

    /** A write is also a read (the mutable fetch observes the slot); it
     * stamps the whole-table slot without reading it. */
    void
    writeObject(ObjectId id)
    {
        write(objects_[slot(id)]);
        stamp(any_object_);
    }

    void readAgent(int id) { read(agents_[slot(id)]); }
    void writeAgent(int id) { write(agents_[slot(id)]); }

    /** A whole-table scan: conflicts with an earlier write of any object. */
    void readAllObjects() { read(any_object_); }

    /** Occupancy read of one cell; a cell off the grid is never written. */
    void
    readCell(const Vec2i &cell)
    {
        if (onGrid(cell))
            read(cells_[cellSlot(cell)]);
    }

    /** The occupancy of a cell a body vacated or claimed (written at the
     * turn's end, so it stamps without reading). */
    void
    writeCell(const Vec2i &cell)
    {
        Serial &slot_stamp = cells_[cellSlot(cell)];
        if (slot_stamp < phase_first_)
            written_cells_.push_back(cell);
        stamp(slot_stamp);
    }

    /** The cells stamped in the current phase, each once, in stamp
     * order: readCell() of any other cell cannot mark a turn
     * conflicted. */
    const std::vector<Vec2i> &writtenCells() const { return written_cells_; }

    /** Mark the turn non-isolatable. */
    void abort() { aborted_ = true; }

    bool aborted() const { return aborted_; }

    /** True once the turn read a slot an earlier turn of its phase wrote. */
    bool conflicted() const { return conflicted_; }

  private:
    /** Serial of a turn; 0 is older than every phase. */
    using Serial = std::uint32_t;

    void
    read(Serial slot_stamp)
    {
        if (slot_stamp >= phase_first_ && slot_stamp < turn_)
            conflicted_ = true;
    }

    /** Keep the first writer: only a stale stamp takes this turn's. */
    void
    stamp(Serial &slot_stamp)
    {
        if (slot_stamp < phase_first_)
            slot_stamp = turn_;
    }

    void
    write(Serial &slot_stamp)
    {
        read(slot_stamp);
        stamp(slot_stamp);
    }

    static std::size_t slot(int id) { return static_cast<std::size_t>(id); }

    bool
    onGrid(const Vec2i &cell) const
    {
        return cell.x >= 0 && cell.x < width_ && cell.y >= 0 &&
               cell.y < height_;
    }

    std::size_t
    cellSlot(const Vec2i &cell) const
    {
        return static_cast<std::size_t>(cell.y * width_ + cell.x);
    }

    std::vector<Serial> objects_;
    std::vector<Serial> agents_;
    std::vector<Serial> cells_;
    std::vector<Vec2i> written_cells_;
    Serial any_object_ = 0;
    int width_ = 0;
    int height_ = 0;
    Serial phase_first_ = 1;
    Serial turn_ = 0;
    bool conflicted_ = false;
    bool aborted_ = false;
};

} // namespace ebs::env::spec

#endif // EBS_ENV_SPEC_H
