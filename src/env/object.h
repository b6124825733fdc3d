#ifndef EBS_ENV_OBJECT_H
#define EBS_ENV_OBJECT_H

#include <string>

#include "env/geom.h"

namespace ebs::env {

/** Identifier of an object within a world (index into the object table). */
using ObjectId = int;

/** Sentinel for "no object". */
inline constexpr ObjectId kNoObject = -1;

/** Coarse object category shared across environments. */
enum class ObjectClass
{
    Item,      ///< graspable thing (food, box, tool, resource drop)
    Container, ///< can hold Items (basket, fridge, bin)
    Station,   ///< fixed appliance (stove, cutting board, crafting table)
    Target,    ///< goal marker (delivery zone, target cell)
    Resource,  ///< minable/harvestable node (tree, ore vein)
};

/**
 * One object in the world. `kind` and `state` are environment-specific codes
 * (e.g. in KitchenEnv, kind = ingredient id, state = raw/chopped/cooked);
 * the substrate only moves objects around.
 */
struct Object
{
    ObjectId id = kNoObject;
    std::string name;
    ObjectClass cls = ObjectClass::Item;
    Vec2i pos;
    int room = -1;            ///< room the object is in (cache of grid room)
    ObjectId inside = kNoObject; ///< container holding this object, if any
    int held_by = -1;         ///< agent carrying this object, or -1
    bool openable = false;
    bool open = true;         ///< closed containers hide their contents
    int kind = 0;             ///< environment-specific type code
    int state = 0;            ///< environment-specific state code
    double weight = 1.0;      ///< mass units; >1 may need multiple agents

    /** True when the object sits freely in the world (not held/contained). */
    bool
    loose() const
    {
        return held_by < 0 && inside == kNoObject;
    }
};

} // namespace ebs::env

#endif // EBS_ENV_OBJECT_H
