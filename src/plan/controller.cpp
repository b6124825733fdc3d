#include "plan/controller.h"

#include <cassert>

namespace ebs::plan {

namespace {

using env::kNoObject;
using env::ObjectId;
using env::Primitive;
using env::PrimOp;
using env::Subgoal;
using env::SubgoalKind;
using env::Vec2i;

/** Append MoveStep primitives along a path (path[0] = current pos). */
void
appendMoves(Compiled &out, const std::vector<Vec2i> &path)
{
    for (std::size_t i = 1; i < path.size(); ++i) {
        Primitive prim;
        prim.op = PrimOp::MoveStep;
        prim.dest = path[i];
        out.prims.push_back(prim);
    }
}

/** Navigate adjacent to `goal`; returns false (with reason) if unreachable. */
bool
navigate(const env::Environment &environment, int agent_id, const Vec2i &goal,
         Compiled &out)
{
    const Vec2i start = environment.world().agent(agent_id).pos;
    std::vector<Vec2i> path;
    const double cost = environment.motionCost(start, goal, &path);
    if (cost < 0.0) {
        out.reason = "unreachable goal cell";
        return false;
    }
    appendMoves(out, path);
    return true;
}

/** Navigate adjacent to the effective position of an object. */
bool
navigateToObject(const env::Environment &environment, int agent_id,
                 ObjectId target, Compiled &out)
{
    if (target == kNoObject) {
        out.reason = "subgoal missing target object";
        return false;
    }
    const Vec2i goal = environment.world().effectivePos(target);
    return navigate(environment, agent_id, goal, out);
}

/** Insert an Open primitive if the object is a closed openable. */
void
maybeOpen(const env::Environment &environment, ObjectId id, Compiled &out)
{
    if (id == kNoObject)
        return;
    const env::Object &obj = environment.world().object(id);
    if (obj.openable && !obj.open) {
        Primitive prim;
        prim.op = PrimOp::Open;
        prim.target = id;
        out.prims.push_back(prim);
    }
}

Primitive
interact(PrimOp op, ObjectId target, int param = 0)
{
    Primitive prim;
    prim.op = op;
    prim.target = target;
    prim.param = param;
    return prim;
}

} // namespace

Compiled
compileSubgoal(const env::Environment &environment, int agent_id,
               const Subgoal &subgoal)
{
    Compiled out;

    switch (subgoal.kind) {
      case SubgoalKind::Wait: {
        out.prims.push_back(interact(PrimOp::Wait, kNoObject));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::Explore:
      case SubgoalKind::GoTo: {
        const bool has_cell = subgoal.dest.x >= 0;
        if (!has_cell && subgoal.target == kNoObject) {
            out.reason = "goto/explore without destination";
            return out;
        }
        const Vec2i goal =
            has_cell ? subgoal.dest
                     : environment.world().effectivePos(subgoal.target);
        if (!navigate(environment, agent_id, goal, out))
            return out;
        out.feasible = true;
        return out;
      }
      case SubgoalKind::PickUp: {
        if (!navigateToObject(environment, agent_id, subgoal.target, out))
            return out;
        out.prims.push_back(interact(PrimOp::Pick, subgoal.target));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::PlaceAt: {
        if (subgoal.dest.x < 0) {
            out.reason = "place without destination cell";
            return out;
        }
        if (!navigate(environment, agent_id, subgoal.dest, out))
            return out;
        Primitive prim = interact(PrimOp::Place, kNoObject);
        prim.dest = subgoal.dest;
        out.prims.push_back(prim);
        out.feasible = true;
        return out;
      }
      case SubgoalKind::PutInto: {
        if (!navigateToObject(environment, agent_id, subgoal.dest_obj, out))
            return out;
        maybeOpen(environment, subgoal.dest_obj, out);
        out.prims.push_back(interact(PrimOp::PutIn, subgoal.dest_obj));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::TakeFrom: {
        if (!navigateToObject(environment, agent_id, subgoal.dest_obj, out))
            return out;
        maybeOpen(environment, subgoal.dest_obj, out);
        out.prims.push_back(interact(PrimOp::TakeOut, subgoal.target));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::OpenObj: {
        if (!navigateToObject(environment, agent_id, subgoal.target, out))
            return out;
        out.prims.push_back(interact(PrimOp::Open, subgoal.target));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::Chop: {
        // Navigate to the processing station when one is given (the
        // ingredient is usually carried), otherwise to the ingredient.
        const ObjectId nav = subgoal.dest_obj != kNoObject ? subgoal.dest_obj
                                                           : subgoal.target;
        if (!navigateToObject(environment, agent_id, nav, out))
            return out;
        out.prims.push_back(interact(PrimOp::Chop, subgoal.target));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::Cook: {
        const ObjectId station = subgoal.dest_obj != kNoObject
                                     ? subgoal.dest_obj
                                     : subgoal.target;
        if (!navigateToObject(environment, agent_id, station, out))
            return out;
        out.prims.push_back(
            interact(PrimOp::Cook, subgoal.target, subgoal.param));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::Craft: {
        const ObjectId station = subgoal.dest_obj != kNoObject
                                     ? subgoal.dest_obj
                                     : subgoal.target;
        if (!navigateToObject(environment, agent_id, station, out))
            return out;
        out.prims.push_back(
            interact(PrimOp::Craft, station, subgoal.param));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::Mine: {
        if (!navigateToObject(environment, agent_id, subgoal.target, out))
            return out;
        out.prims.push_back(interact(PrimOp::Mine, subgoal.target));
        out.feasible = true;
        return out;
      }
      case SubgoalKind::LiftWith: {
        if (!navigateToObject(environment, agent_id, subgoal.target, out))
            return out;
        out.prims.push_back(interact(PrimOp::Lift, subgoal.target));
        out.feasible = true;
        return out;
      }
    }

    out.reason = "unknown subgoal kind";
    return out;
}

} // namespace ebs::plan
