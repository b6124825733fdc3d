#include "envs/boxlift_env.h"

#include <algorithm>

namespace ebs::envs {

namespace {

struct Layout
{
    std::vector<int> weights;
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {{2, 2, 2}, 60};
      case env::Difficulty::Medium:
        return {{2, 2, 3, 3}, 90};
      case env::Difficulty::Hard:
        return {{2, 3, 3, 3, 3}, 130};
    }
    return {{2, 2, 2}, 60};
}

} // namespace

BoxLiftEnv::BoxLiftEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(1, 1, 13, 11))
{
    const Layout layout = layoutFor(difficulty);

    env::Object truck;
    truck.name = "truck bed";
    truck.cls = env::ObjectClass::Target;
    truck.pos = randomFreeCellInRoom(0, rng);
    truck_ = world_.addObject(truck);

    for (std::size_t i = 0; i < layout.weights.size(); ++i) {
        env::Object box;
        box.name = "crate " + std::to_string(i);
        box.cls = env::ObjectClass::Item;
        box.kind = static_cast<int>(i);
        // Never require more lifters than there are agents.
        box.weight = std::min(layout.weights[i], std::max(1, n_agents));
        box.pos = randomFreeCellInRoom(0, rng);
        boxes_.push_back(world_.addObject(box));
    }

    spawnAgents(n_agents, rng);

    const env::ObjectId truck_id = truck_;
    const auto boxes = boxes_;
    setTask(env::Task(
        "Jointly lift all " + std::to_string(boxes.size()) +
            " heavy crates onto the truck",
        layout.max_steps,
        [truck_id, boxes](const env::World &world) {
            int lifted = 0;
            for (const auto box : boxes)
                if (world.object(box).inside == truck_id)
                    ++lifted;
            return static_cast<double>(lifted) /
                   static_cast<double>(boxes.size());
        }));
}

int
BoxLiftEnv::votesOn(env::ObjectId box) const
{
    const auto it = lift_votes_.find(box);
    return it == lift_votes_.end() ? 0
                                   : static_cast<int>(it->second.size());
}

env::ActionResult
BoxLiftEnv::applyDomain(int agent_id, const env::Primitive &prim)
{
    if (prim.op != env::PrimOp::Lift)
        return GridEnvironment::applyDomain(agent_id, prim);
    if (prim.target == env::kNoObject)
        return env::ActionResult::failure("lift without target");

    env::Object &box = world_.object(prim.target);
    if (box.cls != env::ObjectClass::Item ||
        std::find(boxes_.begin(), boxes_.end(), box.id) == boxes_.end())
        return env::ActionResult::failure("target is not a liftable crate");
    if (box.inside == truck_)
        return env::ActionResult::failure("crate already on the truck");
    const env::AgentBody &body = world_.agent(agent_id);
    if (env::chebyshev(body.pos, box.pos) > 1)
        return env::ActionResult::failure("crate out of reach");

    auto &votes = lift_votes_[box.id];
    votes.insert(agent_id);
    if (static_cast<double>(votes.size()) >= box.weight) {
        // Enough lifters this step: the crate goes onto the truck.
        box.inside = truck_;
        box.pos = world_.object(truck_).pos;
        box.room = world_.object(truck_).room;
        votes.clear();
    }
    return env::ActionResult::success();
}

std::vector<env::Subgoal>
BoxLiftEnv::usefulSubgoals(int agent_id) const
{
    (void)agent_id;
    std::vector<env::Subgoal> out;
    // The coordinated plan: every agent converges on the first remaining
    // crate. Proposing the same (lowest-id) crate to all agents is what a
    // good central plan or a productive dialogue round achieves.
    for (const auto box : boxes_) {
        if (world_.object(box).inside == truck_)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::LiftWith;
        sg.target = box;
        out.push_back(sg);
        break;
    }
    return out;
}

std::vector<env::Subgoal>
BoxLiftEnv::validSubgoals(int agent_id) const
{
    (void)agent_id;
    std::vector<env::Subgoal> out;
    for (const auto box : boxes_) {
        if (world_.object(box).inside == truck_)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::LiftWith;
        sg.target = box;
        out.push_back(sg);
    }
    env::Subgoal wait;
    wait.kind = env::SubgoalKind::Wait;
    out.push_back(wait);
    return out;
}

} // namespace ebs::envs
