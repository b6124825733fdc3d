#include "envs/boxnet_env.h"

namespace ebs::envs {

namespace {

struct Layout
{
    int zones_x;
    int zones_y;
    int boxes;
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {2, 2, 3, 60};
      case env::Difficulty::Medium:
        return {3, 2, 6, 110};
      case env::Difficulty::Hard:
        return {3, 3, 9, 160};
    }
    return {2, 2, 3, 60};
}

} // namespace

BoxNetEnv::BoxNetEnv(env::Difficulty difficulty, int n_agents, sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(layoutFor(difficulty).zones_x,
                                              layoutFor(difficulty).zones_y,
                                              5, 5))
{
    const Layout layout = layoutFor(difficulty);
    const int zones = world_.grid().roomCount();

    for (int i = 0; i < layout.boxes; ++i) {
        const int start_zone = rng.uniformInt(0, zones - 1);
        int target_zone = rng.uniformInt(0, zones - 1);
        if (target_zone == start_zone)
            target_zone = (target_zone + 1) % zones;

        env::Object zone_marker;
        zone_marker.name = "target zone " + std::to_string(i);
        zone_marker.cls = env::ObjectClass::Target;
        zone_marker.kind = i;
        zone_marker.pos = randomFreeCellInRoom(target_zone, rng);
        const env::ObjectId target = world_.addObject(zone_marker);

        env::Object box;
        box.name = "box " + std::to_string(i);
        box.cls = env::ObjectClass::Item;
        box.kind = i;
        box.pos = randomFreeCellInRoom(start_zone, rng);
        const env::ObjectId box_id = world_.addObject(box);

        goals_.emplace_back(box_id, target);
    }

    spawnAgents(n_agents, rng);

    const auto goals = goals_;
    setTask(env::Task(
        "Move each of the " + std::to_string(goals.size()) +
            " boxes to its colored target zone",
        layout.max_steps,
        [goals](const env::World &world) {
            int placed = 0;
            for (const auto &[box, target] : goals)
                if (world.object(box).inside == target)
                    ++placed;
            return static_cast<double>(placed) /
                   static_cast<double>(goals.size());
        }));
}

env::ObjectId
BoxNetEnv::targetOf(env::ObjectId box) const
{
    for (const auto &[b, t] : goals_)
        if (b == box)
            return t;
    return env::kNoObject;
}

std::vector<env::Subgoal>
BoxNetEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal sg;
        const env::ObjectId target = targetOf(body.carrying);
        if (target != env::kNoObject) {
            sg.kind = env::SubgoalKind::PutInto;
            sg.target = body.carrying;
            sg.dest_obj = target;
        } else {
            sg.kind = env::SubgoalKind::PlaceAt;
            sg.dest = body.pos;
        }
        out.push_back(sg);
        return out;
    }

    for (const auto &[box, target] : goals_) {
        const env::Object &obj = world_.object(box);
        if (obj.inside == target || obj.held_by >= 0)
            continue;
        env::Subgoal sg;
        sg.kind = env::SubgoalKind::PickUp;
        sg.target = box;
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
BoxNetEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out = usefulSubgoals(agent_id);
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal drop;
        drop.kind = env::SubgoalKind::PlaceAt;
        drop.dest = body.pos;
        out.push_back(drop);
        // Wrong zone: valid but wasteful.
        for (const auto &[box, target] : goals_) {
            if (box == body.carrying)
                continue;
            env::Subgoal wrong;
            wrong.kind = env::SubgoalKind::PutInto;
            wrong.target = body.carrying;
            wrong.dest_obj = target;
            out.push_back(wrong);
            break;
        }
    }

    appendExploreAndWait(out);
    return out;
}

} // namespace ebs::envs
