#include "envs/transport_env.h"

namespace ebs::envs {

namespace {

struct Layout
{
    int rooms_x;
    int rooms_y;
    int goal_items;
    int distractors;
    int containers;
    int hidden_items; ///< goal items that start inside closed containers
    int max_steps;
};

Layout
layoutFor(env::Difficulty difficulty)
{
    switch (difficulty) {
      case env::Difficulty::Easy:
        return {2, 2, 4, 2, 1, 0, 60};
      case env::Difficulty::Medium:
        return {3, 2, 8, 4, 2, 2, 100};
      case env::Difficulty::Hard:
        return {3, 3, 12, 6, 3, 4, 140};
    }
    return {2, 2, 4, 2, 1, 0, 60};
}

} // namespace

TransportEnv::TransportEnv(env::Difficulty difficulty, int n_agents,
                           sim::Rng rng)
    : GridEnvironment(env::GridMap::apartment(
          layoutFor(difficulty).rooms_x, layoutFor(difficulty).rooms_y, 7, 7))
{
    const Layout layout = layoutFor(difficulty);
    goal_count_ = layout.goal_items;

    // Goal zone in room 0.
    {
        env::Object zone;
        zone.name = "goal zone";
        zone.cls = env::ObjectClass::Target;
        zone.pos = randomFreeCellInRoom(0, rng);
        zone_ = world_.addObject(zone);
    }

    // Containers scattered across rooms (closed, openable).
    std::vector<env::ObjectId> containers;
    for (int i = 0; i < layout.containers; ++i) {
        env::Object box;
        box.name = "container " + std::to_string(i);
        box.cls = env::ObjectClass::Container;
        box.openable = true;
        box.open = false;
        const int room =
            rng.uniformInt(0, world_.grid().roomCount() - 1);
        box.pos = randomFreeCellInRoom(room, rng);
        containers.push_back(world_.addObject(box));
    }

    // Goal items: visible ones scattered in non-goal rooms, hidden ones
    // inside containers.
    for (int i = 0; i < layout.goal_items; ++i) {
        env::Object item;
        item.name = "target item " + std::to_string(i);
        item.cls = env::ObjectClass::Item;
        item.kind = kGoalItem;
        if (i < layout.hidden_items && !containers.empty()) {
            const env::ObjectId host = rng.pick(containers);
            item.pos = world_.object(host).pos;
            item.inside = host;
            world_.addObject(item);
        } else {
            const int room =
                rng.uniformInt(1, world_.grid().roomCount() - 1);
            item.pos = randomFreeCellInRoom(room, rng);
            world_.addObject(item);
        }
    }

    // Distractors.
    for (int i = 0; i < layout.distractors; ++i) {
        env::Object item;
        item.name = "distractor " + std::to_string(i);
        item.cls = env::ObjectClass::Item;
        item.kind = kDistractor;
        const int room = rng.uniformInt(0, world_.grid().roomCount() - 1);
        item.pos = randomFreeCellInRoom(room, rng);
        world_.addObject(item);
    }

    spawnAgents(n_agents, rng);

    const env::ObjectId zone = zone_;
    const int total = goal_count_;
    setTask(env::Task(
        "Transport all " + std::to_string(total) +
            " target items to the goal zone",
        layout.max_steps,
        [zone, total](const env::World &world) {
            int delivered = 0;
            for (const auto &obj : world.objects())
                if (obj.kind == kGoalItem && obj.inside == zone)
                    ++delivered;
            return static_cast<double>(delivered) / total;
        }));
}

std::vector<env::Subgoal>
TransportEnv::usefulSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        // Carrying a goal item: deliver it. Carrying junk: put it down.
        env::Subgoal sg;
        if (world_.object(body.carrying).kind == kGoalItem) {
            sg.kind = env::SubgoalKind::PutInto;
            sg.target = body.carrying;
            sg.dest_obj = zone_;
        } else {
            sg.kind = env::SubgoalKind::PlaceAt;
            sg.dest = body.pos;
        }
        out.push_back(sg);
        return out;
    }

    for (const auto &obj : world_.objects()) {
        if (obj.kind != kGoalItem || obj.inside == zone_ || obj.held_by >= 0)
            continue;
        env::Subgoal sg;
        if (obj.inside != env::kNoObject) {
            sg.kind = env::SubgoalKind::TakeFrom;
            sg.target = obj.id;
            sg.dest_obj = obj.inside;
        } else {
            sg.kind = env::SubgoalKind::PickUp;
            sg.target = obj.id;
        }
        out.push_back(sg);
    }
    return out;
}

std::vector<env::Subgoal>
TransportEnv::validSubgoals(int agent_id) const
{
    std::vector<env::Subgoal> out;
    const env::AgentBody &body = world_.agent(agent_id);

    if (body.carrying != env::kNoObject) {
        env::Subgoal put;
        put.kind = env::SubgoalKind::PutInto;
        put.target = body.carrying;
        put.dest_obj = zone_;
        out.push_back(put);
        env::Subgoal drop;
        drop.kind = env::SubgoalKind::PlaceAt;
        drop.dest = body.pos;
        out.push_back(drop);
    } else {
        for (const auto &obj : world_.objects()) {
            if (obj.cls != env::ObjectClass::Item || obj.held_by >= 0)
                continue;
            env::Subgoal sg;
            if (obj.inside == zone_)
                continue; // delivered items stay delivered
            if (obj.inside != env::kNoObject) {
                sg.kind = env::SubgoalKind::TakeFrom;
                sg.target = obj.id;
                sg.dest_obj = obj.inside;
            } else {
                sg.kind = env::SubgoalKind::PickUp;
                sg.target = obj.id;
            }
            out.push_back(sg);
        }
        for (const auto cid : objectsOfClass(env::ObjectClass::Container)) {
            env::Subgoal sg;
            sg.kind = env::SubgoalKind::OpenObj;
            sg.target = cid;
            out.push_back(sg);
        }
    }

    // Navigation is always available.
    appendExploreAndWait(out);
    return out;
}

} // namespace ebs::envs
