#ifndef EBS_ENV_SPEC_H
#define EBS_ENV_SPEC_H

#include <cstdint>
#include <vector>

#include "env/geom.h"
#include "env/object.h"

namespace ebs::env::spec {

/**
 * Read/write-set instrumentation for the speculative execute phase.
 *
 * Every piece of world state an agent's execute() turn can observe or
 * mutate is named by one 64-bit key: an object slot, an agent body slot,
 * the occupancy of one grid cell, or the whole-object-table scans
 * (objectsInRoom/contents). World accessors append keys into the log
 * attached via World::setAccessLog(); the coordinator validates an
 * agent's turn by intersecting its read set with the write sets of
 * lower-indexed agents' turns in the same phase.
 *
 * Keys are plain sorted uint64 vectors (never an unordered container —
 * the determinism lint bans those, and validation only needs a sorted
 * merge/intersect). The kind lives in the top two bits:
 *
 *   00 | object id          one Object slot (any field)
 *   01 | agent id           one AgentBody slot (any field)
 *   10 | (x << 16) | y      occupancy of one grid cell (occupiedByOther
 *                           and the A* blocked-cell queries)
 *   11 | 0                  the whole object table (unkeyed scans)
 */
using AccessKey = std::uint64_t;

inline AccessKey
objectKey(ObjectId id)
{
    return static_cast<AccessKey>(static_cast<std::uint32_t>(id));
}

inline AccessKey
agentKey(int id)
{
    return (AccessKey{1} << 62) |
           static_cast<AccessKey>(static_cast<std::uint32_t>(id));
}

inline AccessKey
cellKey(const Vec2i &cell)
{
    return (AccessKey{2} << 62) |
           (static_cast<AccessKey>(static_cast<std::uint16_t>(cell.x))
            << 16) |
           static_cast<AccessKey>(static_cast<std::uint16_t>(cell.y));
}

inline AccessKey
allObjectsKey()
{
    return AccessKey{3} << 62;
}

/** Kind tag of a key (the top two bits; see the table above). */
inline unsigned
keyKind(AccessKey key)
{
    return static_cast<unsigned>(key >> 62);
}

inline constexpr unsigned kKindObject = 0;
inline constexpr unsigned kKindAgent = 1;
inline constexpr unsigned kKindCell = 2;
inline constexpr unsigned kKindAllObjects = 3;

/** Object/agent id of an object or agent key. */
inline int
keyId(AccessKey key)
{
    return static_cast<int>(key & 0xffffffffULL);
}

/**
 * One execute turn's footprint: what it read, what it wrote, and whether
 * it touched something no key names (world structure changes, or a
 * domain primitive of an environment whose domain rules mutate env-local
 * state). Such a turn cannot be validated, so the coordinator counts it
 * as aborted; the turn itself still runs to completion.
 */
class AccessLog
{
  public:
    void
    read(AccessKey key)
    {
        reads_.push_back(key);
    }

    void
    write(AccessKey key)
    {
        writes_.push_back(key);
    }

    void
    readWrite(AccessKey key)
    {
        reads_.push_back(key);
        writes_.push_back(key);
    }

    /** Mark the run non-isolatable; `reason` must be a string literal. */
    void
    abort(const char *reason)
    {
        aborted_ = true;
        abort_reason_ = reason;
    }

    bool aborted() const { return aborted_; }
    const char *abortReason() const { return abort_reason_; }

    /** Sort + dedupe both key sets (idempotent); call before reads()/
     * writes() are consumed by validation or commit. */
    void finalize();

    const std::vector<AccessKey> &reads() const { return reads_; }
    const std::vector<AccessKey> &writes() const { return writes_; }

    /** Clear for reuse, keeping vector capacity across phases. */
    void reset();

  private:
    std::vector<AccessKey> reads_;
    std::vector<AccessKey> writes_;
    bool aborted_ = false;
    const char *abort_reason_ = "";
};

/**
 * True when a finalized read set overlaps a sorted-unique committed
 * write set. An AllObjects read conflicts with any object write (the
 * scan saw every object, so any object change invalidates it).
 */
bool conflicts(const std::vector<AccessKey> &reads,
               const std::vector<AccessKey> &writes);

/** Merge sorted-unique `extra` into sorted-unique `into` (stays sorted). */
void mergeKeys(std::vector<AccessKey> &into,
               const std::vector<AccessKey> &extra);

} // namespace ebs::env::spec

#endif // EBS_ENV_SPEC_H
