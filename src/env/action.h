#ifndef EBS_ENV_ACTION_H
#define EBS_ENV_ACTION_H

#include <string>

#include "env/geom.h"
#include "env/object.h"

namespace ebs::env {

/**
 * Primitive operations an agent body can perform. These are the low-level
 * actions produced by the execution module; one high-level agent step
 * typically expands into several primitives.
 */
enum class PrimOp
{
    MoveStep, ///< move one cell toward `dest` (already path-planned)
    Pick,     ///< grasp adjacent loose object `target`
    Place,    ///< put carried object down at adjacent cell `dest`
    PutIn,    ///< insert carried object into adjacent container `target`
    TakeOut,  ///< remove object `target` from its adjacent container
    Open,     ///< open adjacent openable `target`
    Close,    ///< close adjacent openable `target`
    Chop,     ///< domain op: process adjacent ingredient `target`
    Cook,     ///< domain op: cook at adjacent station `target`
    Craft,    ///< domain op: craft recipe `param` at station `target`
    Mine,     ///< domain op: harvest adjacent resource `target`
    Lift,     ///< domain op: (multi-agent) lift adjacent heavy `target`
    Wait,     ///< no-op (also used for turn-taking)
};

/** Display name of a primitive op. */
const char *primOpName(PrimOp op);

/** One primitive action instance. */
struct Primitive
{
    PrimOp op = PrimOp::Wait;
    ObjectId target = kNoObject; ///< object operand
    Vec2i dest;                  ///< cell operand (MoveStep / Place)
    int param = 0;               ///< op-specific extra (recipe id, ...)

    /** Human-readable rendering, e.g. "Pick(obj 3)". */
    std::string describe() const;
};

/** Outcome of applying a primitive. */
struct ActionResult
{
    bool ok = false;
    /** Failure reason when !ok, a string literal ("" on success). */
    const char *reason = "";

    static ActionResult success() { return {true, ""}; }
    static ActionResult failure(const char *why) { return {false, why}; }
};

} // namespace ebs::env

#endif // EBS_ENV_ACTION_H
