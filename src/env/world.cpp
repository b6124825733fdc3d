#include "env/world.h"

#include <cassert>

namespace ebs::env {

World::World(GridMap grid)
    : grid_(std::move(grid))
{
}

ObjectId
World::addObject(Object obj)
{
    // Structural growth is not a slot write the access log can validate.
    if (log_ != nullptr)
        log_->abort();
    obj.id = static_cast<ObjectId>(objects_.size());
    obj.room = grid_.room(obj.pos);
    objects_.push_back(std::move(obj));
    coverLog();
    return objects_.back().id;
}

int
World::addAgent(const Vec2i &pos)
{
    assert(grid_.walkable(pos));
    if (log_ != nullptr)
        log_->abort(); // structural growth, as in addObject
    AgentBody body;
    body.id = static_cast<int>(agents_.size());
    body.pos = pos;
    agents_.push_back(body);
    coverLog();
    return body.id;
}

const Object &
World::object(ObjectId id) const
{
    assert(id >= 0 && id < static_cast<ObjectId>(objects_.size()));
    if (log_ != nullptr)
        log_->readObject(id);
    return objects_[static_cast<std::size_t>(id)];
}

Object &
World::object(ObjectId id)
{
    assert(id >= 0 && id < static_cast<ObjectId>(objects_.size()));
    // A mutable fetch is logged as a write, which is also a read: every
    // World mutation path fetches its entity through here first, so a
    // write after an earlier turn's write conflicts too.
    if (log_ != nullptr)
        log_->writeObject(id);
    return objects_[static_cast<std::size_t>(id)];
}

const AgentBody &
World::agent(int id) const
{
    assert(id >= 0 && id < agentCount());
    if (log_ != nullptr)
        log_->readAgent(id);
    return agents_[static_cast<std::size_t>(id)];
}

AgentBody &
World::agent(int id)
{
    assert(id >= 0 && id < agentCount());
    if (log_ != nullptr)
        log_->writeAgent(id);
    return agents_[static_cast<std::size_t>(id)];
}

std::vector<ObjectId>
World::objectsInRoom(int room) const
{
    if (log_ != nullptr)
        log_->readAllObjects();
    std::vector<ObjectId> out;
    for (const auto &obj : objects_)
        if (obj.loose() && obj.room == room)
            out.push_back(obj.id);
    return out;
}

std::vector<ObjectId>
World::contents(ObjectId container) const
{
    if (log_ != nullptr)
        log_->readAllObjects();
    std::vector<ObjectId> out;
    for (const auto &obj : objects_)
        if (obj.inside == container)
            out.push_back(obj.id);
    return out;
}

Vec2i
World::effectivePos(ObjectId id) const
{
    const Object *obj = &object(id);
    // Follow the container chain (containers cannot themselves be held
    // while containing in our domains, but be safe).
    int hops = 0;
    while (obj->inside != kNoObject && hops++ < 8)
        obj = &object(obj->inside);
    if (obj->held_by >= 0)
        return agent(obj->held_by).pos;
    return obj->pos;
}

bool
World::occupiedByOther(int agent_id, const Vec2i &cell) const
{
    // Logged as a read of the *cell's* occupancy, not of every agent:
    // each turn's end writes the cells its moves vacated and claimed, so
    // this conflicts exactly with agents that vacated or claimed `cell`.
    if (log_ != nullptr)
        log_->readCell(cell);
    for (const auto &body : agents_)
        if (body.id != agent_id && body.pos == cell)
            return true;
    return false;
}

ActionResult
World::applySpatial(int agent_id, const Primitive &prim)
{
    AgentBody &body = agent(agent_id);
    switch (prim.op) {
      case PrimOp::MoveStep:
        return doMoveStep(body, prim);
      case PrimOp::Pick:
        return doPick(body, prim);
      case PrimOp::Place:
        return doPlace(body, prim);
      case PrimOp::PutIn:
        return doPutIn(body, prim);
      case PrimOp::TakeOut:
        return doTakeOut(body, prim);
      case PrimOp::Open:
        return doOpenClose(body, prim, true);
      case PrimOp::Close:
        return doOpenClose(body, prim, false);
      case PrimOp::Wait:
        return ActionResult::success();
      default:
        return ActionResult::failure("domain primitive not handled by World");
    }
}

ActionResult
World::doMoveStep(AgentBody &agent, const Primitive &prim)
{
    if (manhattan(agent.pos, prim.dest) != 1)
        return ActionResult::failure("move step not unit-length");
    if (!grid_.walkable(prim.dest))
        return ActionResult::failure("destination not walkable");
    if (occupiedByOther(agent.id, prim.dest))
        return ActionResult::failure("destination occupied by another agent");
    agent.pos = prim.dest;
    if (agent.carrying != kNoObject) {
        Object &held = object(agent.carrying);
        held.pos = agent.pos;
        held.room = grid_.room(agent.pos);
    }
    return ActionResult::success();
}

ActionResult
World::doPick(AgentBody &agent, const Primitive &prim)
{
    if (prim.target == kNoObject)
        return ActionResult::failure("pick without target");
    Object &obj = object(prim.target);
    if (agent.carrying != kNoObject)
        return ActionResult::failure("gripper already full");
    if (obj.held_by >= 0)
        return ActionResult::failure("object held by another agent");
    if (obj.inside != kNoObject)
        return ActionResult::failure("object inside a container");
    if (obj.cls != ObjectClass::Item && obj.cls != ObjectClass::Container)
        return ActionResult::failure("object not graspable");
    if (obj.weight > 1.0)
        return ActionResult::failure("object too heavy for one agent");
    if (chebyshev(agent.pos, obj.pos) > 1)
        return ActionResult::failure("object out of reach");
    obj.held_by = agent.id;
    obj.pos = agent.pos;
    obj.room = grid_.room(agent.pos);
    agent.carrying = obj.id;
    return ActionResult::success();
}

ActionResult
World::doPlace(AgentBody &agent, const Primitive &prim)
{
    if (agent.carrying == kNoObject)
        return ActionResult::failure("nothing carried");
    if (chebyshev(agent.pos, prim.dest) > 1)
        return ActionResult::failure("place cell out of reach");
    if (!grid_.walkable(prim.dest))
        return ActionResult::failure("place cell not walkable");
    Object &obj = object(agent.carrying);
    obj.held_by = -1;
    obj.pos = prim.dest;
    obj.room = grid_.room(prim.dest);
    agent.carrying = kNoObject;
    return ActionResult::success();
}

ActionResult
World::doPutIn(AgentBody &agent, const Primitive &prim)
{
    if (agent.carrying == kNoObject)
        return ActionResult::failure("nothing carried");
    if (prim.target == kNoObject)
        return ActionResult::failure("put-in without container");
    Object &container = object(prim.target);
    if (container.cls != ObjectClass::Container &&
        container.cls != ObjectClass::Target)
        return ActionResult::failure("destination is not a container");
    if (container.id == agent.carrying)
        return ActionResult::failure("cannot put object into itself");
    if (chebyshev(agent.pos, effectivePos(container.id)) > 1)
        return ActionResult::failure("container out of reach");
    if (container.openable && !container.open)
        return ActionResult::failure("container is closed");
    Object &obj = object(agent.carrying);
    obj.held_by = -1;
    obj.inside = container.id;
    obj.pos = container.pos;
    obj.room = container.room;
    agent.carrying = kNoObject;
    return ActionResult::success();
}

ActionResult
World::doTakeOut(AgentBody &agent, const Primitive &prim)
{
    if (agent.carrying != kNoObject)
        return ActionResult::failure("gripper already full");
    if (prim.target == kNoObject)
        return ActionResult::failure("take-out without target");
    Object &obj = object(prim.target);
    if (obj.inside == kNoObject)
        return ActionResult::failure("object not in a container");
    Object &container = object(obj.inside);
    if (chebyshev(agent.pos, effectivePos(container.id)) > 1)
        return ActionResult::failure("container out of reach");
    if (container.openable && !container.open)
        return ActionResult::failure("container is closed");
    obj.inside = kNoObject;
    obj.held_by = agent.id;
    obj.pos = agent.pos;
    obj.room = grid_.room(agent.pos);
    agent.carrying = obj.id;
    return ActionResult::success();
}

ActionResult
World::doOpenClose(AgentBody &agent, const Primitive &prim, bool open)
{
    if (prim.target == kNoObject)
        return ActionResult::failure("open/close without target");
    Object &obj = object(prim.target);
    if (!obj.openable)
        return ActionResult::failure("object not openable");
    if (chebyshev(agent.pos, effectivePos(obj.id)) > 1)
        return ActionResult::failure("object out of reach");
    obj.open = open;
    return ActionResult::success();
}

} // namespace ebs::env
